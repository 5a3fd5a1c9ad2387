#!/usr/bin/env python3
"""Repository benchmark: builds the library from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads:

    ingest_dense   kron12 density-0.5 stream, leaf gutters + RAM store
    ingest_disk    the same stream, gutter tree + on-disk store
    serve_mixed    two loopback gz_shard listeners; writer slab + flush,
                   then a reader snapshot + query

The first run configures and builds perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. gz_perfbench prints its parameters, trace summary and any
failure on stderr, and the metrics it measured as one JSON object.
BENCHMARK.json is the one list of metric names and units: this script
requires every end-to-end metric of an untraced run, fills in 0 for the
per-layer metrics of layers a traced run leaves idle, refuses any other
name or unit, and prints the result as its last stdout line.
It exits non-zero, printing no result, when the build, the run or the
correctness gate fails. Backing files live under .bench_work/ and are
removed after every run; traced runs leave their spans in
.bench_traces/<workload>-seed<seed>.jsonl.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_dense", "ingest_disk", "serve_mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds gz_perfbench and gz_shard; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "graph_zeppelin.cc")):
        log(f"library sources not found under {ROOT}/src")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "gz_perfbench",
                  "gz_shard", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "gz_perfbench")


def stop_group(pgid):
    """Kills whatever is left of gz_perfbench's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    log(f"process group {pgid} did not exit")


def declared_metrics(trace):
    """{name: unit} BENCHMARK.json declares for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def check_result(line, declared, trace):
    """Parses gz_perfbench's result line; returns (result, problem)."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "no JSON result line"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None, f"unexpected result keys {sorted(result)}"
    if not result["correct"] or result["failed"] != 0:
        return None, f"correctness gate failed ({result['failed']} failed ops)"
    measured = result["metrics"]
    for name, metric in measured.items():
        if declared.get(name) != metric["unit"]:
            return None, f"metric {name} ({metric['unit']}) is not in BENCHMARK.json"
    missing = [name for name in declared if name not in measured]
    if missing and not trace:
        return None, "end-to-end metrics not measured: " + ", ".join(missing)
    # Idle layers of a traced run read 0; the order is BENCHMARK.json's.
    result["metrics"] = {name: measured.get(name, {"value": 0, "unit": unit})
                         for name, unit in declared.items()}
    return result, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    declared = declared_metrics(args.trace == 1)
    if declared is None:
        log(f"cannot read the metric list from {ROOT}/BENCHMARK.json")
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 2

    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(ROOT, ".bench_traces")
    os.makedirs(os.path.dirname(work_dir), exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--trace-out", trace_out]
    # Its own process group, so a crash cannot leave gz_shard children.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        stop_group(proc.pid)
        proc.communicate()
        return 1
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.strip().splitlines()
    result, problem = check_result(lines[-1] if lines else "", declared,
                                   args.trace == 1)
    if proc.returncode != 0 or problem is not None:
        log(f"gz_perfbench exited {proc.returncode}: {problem or 'see stderr'}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
