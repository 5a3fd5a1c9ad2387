#!/usr/bin/env python3
"""Steadiness tool for the repository benchmark.

Runs workloads several times with different seeds and prints, for each
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) against the metric's
bound in BENCHMARK.json. Two saved sets can then be compared: the second
set's median may not be worse than the first's by more than the bound.

    python3 perfbench/steady.py run --workloads all --seeds 1-10 --out a.json
    python3 perfbench/steady.py run --workloads ingest_disk --seeds 1-5
    python3 perfbench/steady.py compare a.json b.json

`run` exits non-zero when a run fails or a spread exceeds its bound;
`compare` exits non-zero when a median regresses past its bound. A spread within a third of the bound is reported as steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def cmd_run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    saved = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            metrics = run_once(workload, seed, seconds)
            print(f"{workload} seed {seed}: "
                  + ("FAILED" if metrics is None else
                     " ".join(f"{k}={v:.6g}" for k, v in metrics.items())),
                  flush=True)
            if metrics is None:
                ok = False
            else:
                runs.append(metrics)
        saved["workloads"][workload] = runs
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in spec["end_to_end"]:
            median, q1, q3, spread = summarize([r[m["name"]] for r in runs])
            if spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict, ok = "UNSTEADY", False
            print(f"  {m['name']:<22}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{m['bound']:>7.2f}  {verdict}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args, spec):
    with open(args.first) as f:
        first = json.load(f)["workloads"]
    with open(args.second) as f:
        second = json.load(f)["workloads"]
    ok = True
    for workload in sorted(set(first) & set(second)):
        print(f"{workload}:")
        for m in spec["end_to_end"]:
            a = statistics.median(r[m["name"]] for r in first[workload])
            b = statistics.median(r[m["name"]] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "REGRESSED"
            ok = ok and verdict == "ok"
            print(f"  {m['name']:<22}{a:>14.6g}{b:>14.6g}  worse by "
                  f"{worse:+.3f} (bound {m['bound']:.2f})  {verdict}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads over several seeds")
    run.add_argument("--workloads", default="all",
                     help="comma-separated names, or 'all'")
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    run.add_argument("--seconds", type=int, default=0,
                     help="run length (default: run_seconds)")
    run.add_argument("--out", help="save the runs as JSON here")
    compare = sub.add_parser("compare", help="compare two saved sets")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    spec = load_spec()
    return cmd_run(args, spec) if args.command == "run" else cmd_compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
