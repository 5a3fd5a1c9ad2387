// ingest_dense and ingest_disk: the kron12 density-0.5 stream into one
// GraphZeppelin, leaf gutters + RAM store or gutter tree + on-disk
// store. Closed loop: each iteration sets up a fresh instance, ingests
// the whole stream through the bulk Update, flushes, and answers a few
// checked connectivity queries (fifteen per iteration, so two iterations
// already give the 21 samples a tail above the median needs).
//
// The traced run adds a single-threaded replay of the same stream
// through the layers GraphZeppelin wires together (gutters, work
// queue, NodeSketch::UpdateBatch, SketchStore::MergeDelta), timing each
// layer call, and requires the replayed store to equal the system's
// snapshot byte for byte.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "buffer/gutter_tree.h"
#include "buffer/leaf_gutters.h"
#include "buffer/update_batch.h"
#include "buffer/work_queue.h"
#include "core/graph_zeppelin.h"
#include "core/sketch_store.h"
#include "sketch/node_sketch.h"
#include "sketch/sketch_kernel.h"

namespace perfbench {
namespace {

constexpr int kScale = 12;  // V = 4096, the paper's Fig. 13 regime.
constexpr double kDensity = 0.5;
constexpr int kWorkers = 2;
constexpr int kQueriesPerIteration = 15;
// Set-up samples, taken after every measured iteration: up to
// kSetupsPerIteration while they take under kSetupSecondsPerIteration
// (at least one), and at the end more until there are kMinSetups. A
// sub-millisecond set-up (the on-disk store's: two file creations and
// two thread starts) moves with the host's load from second to second,
// so its median is taken over samples spread across the whole run.
constexpr size_t kSetupsPerIteration = 60;
constexpr double kSetupSecondsPerIteration = 0.1;
constexpr size_t kMinSetups = 9;
constexpr size_t kReplayChunk = 1 << 16;

struct Truth {
  std::vector<uint32_t> labels;
  size_t components = 0;
};

struct Iteration {
  double setup_s = 0.0;
  double update_s = 0.0;
  double flush_s = 0.0;
  std::vector<double> query_s;
  double ram_mb = 0.0;
  double disk_mb = 0.0;
  int boruvka_rounds = 0;
  double unit_s() const {
    double total = setup_s + update_s + flush_s;
    for (const double q : query_s) total += q;
    return total;
  }
};

gz::GraphZeppelinConfig IngestConfig(uint64_t seed, bool on_disk,
                                     const std::string& dir) {
  gz::GraphZeppelinConfig config;
  config.num_nodes = uint64_t{1} << kScale;
  config.seed = seed;
  config.num_workers = kWorkers;
  if (on_disk) {
    config.buffering = gz::GraphZeppelinConfig::Buffering::kGutterTree;
    config.storage = gz::GraphZeppelinConfig::Storage::kDisk;
  }
  config.disk_dir = dir;
  return config;
}

// One iteration answering `queries` queries. With `keep`, the instance
// outlives the call.
bool IngestOnce(const gz::GraphZeppelinConfig& config,
                const std::vector<gz::GraphUpdate>& stream,
                const Truth& truth, int queries, Tracer* tracer,
                Report* report, Iteration* out,
                std::unique_ptr<gz::GraphZeppelin>* keep = nullptr) {
  std::unique_ptr<gz::GraphZeppelin> instance;
  {
    Tracer::Scope span(tracer, "core.init");
    instance = std::make_unique<gz::GraphZeppelin>(config);
    if (!report->Op(instance->Init(), "GraphZeppelin::Init")) return false;
    out->setup_s = span.Stop();
  }
  gz::GraphZeppelin& system = *instance;
  {
    Tracer::Scope span(tracer, "core.update");
    system.Update(stream.data(), stream.size());
    out->update_s = span.Stop();
  }
  report->Attempt();
  // Gutters hold their fill until the flush drains them.
  const size_t ram_mid_stream = system.RamByteSize();
  {
    Tracer::Scope span(tracer, "core.flush");
    system.Flush();
    out->flush_s = span.Stop();
  }
  report->Attempt();
  out->ram_mb = std::max(ram_mid_stream, system.RamByteSize()) / kMb;
  out->disk_mb = system.DiskByteSize() / kMb;

  for (int q = 0; q < queries; ++q) {
    const Clock::time_point query_start = Clock::now();
    gz::ConnectivityResult result;
    {
      gz::GraphSnapshot snapshot;
      {
        Tracer::Scope span(tracer, "core.snapshot");
        snapshot = system.Snapshot();
      }
      Tracer::Scope span(tracer, "core.connectivity");
      result = gz::Connectivity(std::move(snapshot), config.query_threads);
    }
    std::string why;
    bool same = false;
    {
      Tracer::Scope span(tracer, "bench.check");
      same = SameComponents(truth.labels, truth.components, result, &why);
    }
    out->query_s.push_back(SecondsSince(query_start));
    out->boruvka_rounds = result.rounds_used;
    report->Answer(same);
    if (!same) {
      report->Fail("connectivity answer: " + why);
      return false;
    }
  }
  if (keep != nullptr) *keep = std::move(instance);
  return true;
}

// Times the set-up (construction + Init) of up to `count` fresh
// instances; after the first, stops once `seconds` have passed.
bool SampleSetups(const gz::GraphZeppelinConfig& config, size_t count,
                  double seconds, Report* report,
                  std::vector<double>* setups) {
  const Clock::time_point begin = Clock::now();
  for (size_t i = 0; i < count && (i == 0 || SecondsSince(begin) < seconds);
       ++i) {
    const Clock::time_point start = Clock::now();
    gz::GraphZeppelin system(config);
    if (!report->Op(system.Init(), "GraphZeppelin::Init")) return false;
    setups->push_back(SecondsSince(start));
  }
  return true;
}

struct ReplayStats {
  uint64_t batches = 0;
  uint64_t half_updates = 0;
  double wall_s = 0.0;
};

// Single-threaded replay of `stream` through the layers GraphZeppelin
// wires together, with the same geometry. Returns the replayed store;
// backing files go to config.disk_dir and are listed in *files.
std::unique_ptr<gz::SketchStore> Replay(
    const gz::GraphZeppelinConfig& config,
    const std::vector<gz::GraphUpdate>& stream, Tracer* tracer,
    Report* report, ReplayStats* stats, std::vector<std::string>* files) {
  gz::NodeSketchParams params;
  params.num_nodes = config.num_nodes;
  params.seed = config.seed;
  params.cols = config.cols;
  params.rounds = config.rounds;
  std::unique_ptr<gz::SketchStore> store;
  if (config.storage == gz::GraphZeppelinConfig::Storage::kDisk) {
    files->push_back(config.disk_dir + "/replay_sketches.bin");
    auto disk = std::make_unique<gz::OnDiskSketchStore>(params, files->back());
    if (!report->Op(disk->Init(), "OnDiskSketchStore::Init")) return nullptr;
    store = std::move(disk);
  } else {
    store = std::make_unique<gz::InMemorySketchStore>(params);
  }
  gz::NodeSketch delta(store->params());
  // GraphZeppelin::Init's sizing: gutter = f * sketch bytes / 8 B.
  const size_t gutter_updates = std::max<size_t>(
      1, static_cast<size_t>(config.gutter_fraction *
                             static_cast<double>(delta.ByteSize())) /
             sizeof(uint64_t));
  gz::BatchPool pool(static_cast<uint32_t>(gutter_updates));
  // No push may block: one thread both fills and drains the queue, so
  // it holds every batch a single insert call or flush can emit.
  gz::WorkQueue queue(4 * stream.size() / gutter_updates +
                      2 * config.num_nodes + 64);
  std::unique_ptr<gz::GutteringSystem> gutters;
  if (config.buffering == gz::GraphZeppelinConfig::Buffering::kLeafOnly) {
    gz::LeafGuttersParams lp;
    lp.num_nodes = config.num_nodes;
    lp.gutter_capacity = gutter_updates;
    lp.nodes_per_group = config.nodes_per_gutter_group;
    gutters = std::make_unique<gz::LeafGutters>(lp, &pool, &queue);
  } else {
    gz::GutterTreeParams tp;
    tp.num_nodes = config.num_nodes;
    files->push_back(config.disk_dir + "/replay_gutter_tree.bin");
    tp.file_path = files->back();
    tp.buffer_bytes = config.gutter_tree_buffer_bytes;
    tp.fanout = config.gutter_tree_fanout;
    tp.leaf_gutter_updates = gutter_updates;
    tp.nodes_per_group = config.nodes_per_gutter_group;
    auto tree = std::make_unique<gz::GutterTree>(tp, &pool, &queue);
    if (!report->Op(tree->Init(), "GutterTree::Init")) return nullptr;
    gutters = std::move(tree);
  }

  auto drain = [&] {
    while (queue.ApproxSize() > 0) {
      gz::UpdateBatch* batch = nullptr;
      {
        Tracer::Scope span(tracer, "work_queue.pop");
        batch = queue.Pop();
      }
      {
        Tracer::Scope span(tracer, "sketch.update_batch");
        delta.Clear();
        delta.UpdateBatch(batch->edge_indices(), batch->count);
      }
      {
        Tracer::Scope span(tracer, "sketch_store.merge");
        store->MergeDelta(batch->node, delta);
      }
      stats->half_updates += batch->count;
      ++stats->batches;
      pool.Release(batch);
      queue.MarkDone();
    }
  };
  Tracer::Scope root(tracer, "bench.replay");
  for (size_t offset = 0; offset < stream.size(); offset += kReplayChunk) {
    {
      Tracer::Scope span(tracer, "buffer.insert");
      gutters->InsertBatch(stream.data() + offset,
                           std::min(kReplayChunk, stream.size() - offset));
    }
    drain();
  }
  {
    Tracer::Scope span(tracer, "buffer.flush");
    gutters->ForceFlush();
  }
  drain();
  stats->wall_s = root.Stop();
  return store;
}

// Byte-for-byte comparison of the system's serialized snapshot stream
// with the same stream produced from the replayed store.
bool SameState(gz::GraphZeppelin* system, gz::SketchStore* store,
               uint64_t num_updates, std::string* why) {
  gz::NodeSketch scratch(store->params());
  std::vector<uint8_t> header;
  // The sink stops the writer after the header: only it is needed here.
  (void)gz::GraphSnapshot::SaveToSink(
      [&header](const void* data, size_t size) {
        const auto* bytes = static_cast<const uint8_t*>(data);
        header.assign(bytes, bytes + size);
        return gz::Status::Internal("header captured");
      },
      store->params(), num_updates,
      [&](gz::NodeId i) -> const gz::NodeSketch& {
        store->Load(i, &scratch);
        return scratch;
      });
  std::vector<uint8_t> expected(
      gz::NodeSketch::SerializedSizeFor(store->params()));
  uint64_t chunk = 0;
  why->clear();
  const gz::Status s = system->WriteSnapshotTo(
      [&](const void* data, size_t size) {
        if (!why->empty()) return gz::Status::Ok();
        if (chunk == 0) {
          if (size != header.size() ||
              std::memcmp(data, header.data(), size) != 0) {
            *why = "snapshot header differs";
          }
        } else {
          const gz::NodeId node = static_cast<gz::NodeId>(chunk - 1);
          store->Load(node, &scratch);
          scratch.SerializeTo(expected.data());
          if (size != expected.size() ||
              std::memcmp(data, expected.data(), size) != 0) {
            *why = "sketch of node " + std::to_string(node) + " differs";
          }
        }
        ++chunk;
        return gz::Status::Ok();
      });
  if (!s.ok()) *why = s.ToString();
  if (why->empty() && chunk != store->num_nodes() + 1) {
    *why = "snapshot stream has " + std::to_string(chunk) + " chunks";
  }
  return why->empty();
}

void ReportUntraced(const std::vector<Iteration>& iterations,
                    const std::vector<double>& setups, size_t num_updates,
                    Report* report) {
  std::vector<double> rates, queries, ram;
  for (const Iteration& it : iterations) {
    std::fprintf(stderr,
                 "iteration: setup %.4f s, update %.3f s, flush %.3f s, "
                 "queries %.1f-%.1f ms, median %.1f (%d Boruvka rounds)\n",
                 it.setup_s, it.update_s, it.flush_s,
                 *std::min_element(it.query_s.begin(), it.query_s.end()) * 1e3,
                 *std::max_element(it.query_s.begin(), it.query_s.end()) * 1e3,
                 Median(it.query_s) * 1e3, it.boruvka_rounds);
    rates.push_back(num_updates / (it.update_s + it.flush_s));
    for (const double q : it.query_s) queries.push_back(q * 1e3);
    ram.push_back(it.ram_mb);
  }
  {
    std::vector<double> sorted = setups;
    std::sort(sorted.begin(), sorted.end());
    std::fprintf(stderr, "setup samples: min %.1f us, q1 %.1f, median %.1f, "
                 "q3 %.1f, max %.1f\n", sorted.front() * 1e6,
                 sorted[sorted.size() / 4] * 1e6, Median(setups) * 1e6,
                 sorted[3 * sorted.size() / 4] * 1e6, sorted.back() * 1e6);
  }
  const Tail tail = TailOf(queries);
  report->Set("setup_s", Median(setups), "s");
  report->Set("ingest_updates_per_s", Median(rates), "1/s");
  report->Set("query_p50_ms", Median(queries), "ms");
  report->Set("query_tail_ms", tail.value, "ms");
  report->Set("ram_mb", Median(ram), "MB");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  std::fprintf(stderr,
               "iterations=%zu setups=%zu query tail = p%.1f of %zu samples\n",
               iterations.size(), setups.size(), tail.percentile,
               tail.samples);
}

}  // namespace

void RunIngest(const Options& options, bool on_disk, Report* report) {
  const gz::GraphZeppelinConfig config =
      IngestConfig(options.seed, on_disk, options.work_dir);
  const std::vector<gz::GraphUpdate> stream =
      KronStream(kScale, kDensity, options.seed);
  Truth truth;
  uint64_t final_edges = 0;
  {
    EdgeSetTruth edges(config.num_nodes);
    edges.Apply(stream.data(), stream.size());
    truth.labels = edges.Labels(&truth.components);
    final_edges = edges.num_edges();
  }
  std::fprintf(stderr,
               "params: V=%llu updates=%zu density=%.2f final_edges=%llu "
               "components=%zu workers=%d buffering=%s storage=%s "
               "kernel=%s\n",
               static_cast<unsigned long long>(config.num_nodes),
               stream.size(), kDensity,
               static_cast<unsigned long long>(final_edges), truth.components,
               kWorkers, on_disk ? "gutter_tree" : "leaf", on_disk ? "disk" : "ram",
               gz::SketchKernelName(gz::ActiveSketchKernel()));
  ResetPeakRss();

  // One unmeasured iteration first: it pays the process's first-touch
  // page faults, which later iterations reuse from the allocator.
  Tracer untraced(false, "system");
  Iteration warm_up;
  if (!IngestOnce(config, stream, truth, /*queries=*/1, &untraced, report,
                  &warm_up)) {
    return;
  }
  if (!options.trace) {
    std::vector<Iteration> iterations;
    std::vector<double> setups;
    const Clock::time_point start = Clock::now();
    double last_s = 0.0;
    // Another iteration starts only when, judged by the last one's
    // length, it should end less than half an iteration past the run's
    // seconds: runs then last about --seconds on average.
    do {
      const Clock::time_point iteration_start = Clock::now();
      Iteration it;
      untraced.set_round(static_cast<int>(iterations.size()));
      if (!IngestOnce(config, stream, truth, kQueriesPerIteration, &untraced,
                      report, &it) ||
          !SampleSetups(config, kSetupsPerIteration,
                        kSetupSecondsPerIteration, report, &setups)) {
        return;
      }
      iterations.push_back(it);
      last_s = SecondsSince(iteration_start);
    } while (SecondsSince(start) + last_s / 2 <= options.seconds);
    if (setups.size() < kMinSetups &&
        !SampleSetups(config, kMinSetups - setups.size(),
                      std::numeric_limits<double>::infinity(), report,
                      &setups)) {
      return;
    }
    ReportUntraced(iterations, setups, stream.size(), report);
    return;
  }

  // Traced run: one untraced iteration, then the same iteration traced;
  // their difference is the tracing overhead.
  Iteration plain, traced;
  if (!IngestOnce(config, stream, truth, kQueriesPerIteration, &untraced,
                  report, &plain)) {
    return;
  }
  Tracer tracer(true, "system");
  std::unique_ptr<gz::GraphZeppelin> system;
  const ProcIo io_before = ReadProcIo(0);
  if (!IngestOnce(config, stream, truth, kQueriesPerIteration, &tracer,
                  report, &traced, &system)) {
    return;
  }
  const ProcIo io_after = ReadProcIo(0);
  report->Set("core.update.busy_s", tracer.BusySeconds("core.update"), "s");
  report->Set("core.flush.wait_s", tracer.BusySeconds("core.flush"), "s");
  report->Set("core.snapshot.busy_s", tracer.BusySeconds("core.snapshot"),
              "s");
  report->Set("core.connectivity.busy_s",
              tracer.BusySeconds("core.connectivity"), "s");
  report->Set("core.connectivity.rounds", traced.boruvka_rounds, "count");
  report->Set("io.read_mb", (io_after.rchar - io_before.rchar) / kMb, "MB");
  report->Set("io.write_mb", (io_after.wchar - io_before.wchar) / kMb, "MB");
  report->Set("core.disk_mb", traced.disk_mb, "MB");
  report->Set("trace.unit_wall_s", traced.unit_s(), "s");
  report->Set("trace.overhead_ratio", traced.unit_s() / plain.unit_s() - 1.0,
              "ratio");
  std::fprintf(stderr,
               "traced iteration %.3f s vs untraced %.3f s (overhead %+.1f%%)\n",
               traced.unit_s(), plain.unit_s(),
               100.0 * (traced.unit_s() / plain.unit_s() - 1.0));
  ReportSnapshotLayers(system->Snapshot(), &tracer, report);

  // The replay: per-layer busy time of the ingest path, and the
  // single-thread baseline rate.
  Tracer replay_tracer(true, "replay");
  ReplayStats stats;
  std::vector<std::string> files;
  std::unique_ptr<gz::SketchStore> store =
      Replay(config, stream, &replay_tracer, report, &stats, &files);
  if (store != nullptr) {
    std::string why;
    const bool same = SameState(system.get(), store.get(), stream.size(), &why);
    report->Answer(same);
    if (!same) report->Fail("replayed store differs from the snapshot: " + why);
  }
  store.reset();
  system.reset();
  for (const std::string& path : files) ::unlink(path.c_str());

  report->Set("buffer.insert.busy_s", replay_tracer.BusySeconds("buffer.insert"),
              "s");
  report->Set("buffer.flush.busy_s", replay_tracer.BusySeconds("buffer.flush"),
              "s");
  report->Set("buffer.batches", stats.batches, "count");
  report->Set("buffer.updates_per_batch",
              stats.batches > 0 ? double(stats.half_updates) / stats.batches
                                : 0.0,
              "count");
  // One thread fills and drains the queue and pops only when it is not
  // empty, so no pop waits: this is the cost of an uncontended pop.
  report->Set("work_queue.pop.busy_s",
              replay_tracer.BusySeconds("work_queue.pop"), "s");
  const double sketch_s = replay_tracer.BusySeconds("sketch.update_batch");
  report->Set("sketch.update_batch.busy_s", sketch_s, "s");
  report->Set("sketch.ns_per_update",
              stats.half_updates > 0 ? sketch_s * 1e9 / stats.half_updates
                                     : 0.0,
              "ns");
  report->Set("sketch_store.merge.busy_s",
              replay_tracer.BusySeconds("sketch_store.merge"), "s");
  report->Set("replay.updates_per_s", stream.size() / stats.wall_s, "1/s");
  // Ingest happens inside single opaque system calls, so the layer
  // split of ingest comes from the replay.
  for (const auto& [layer, seconds] : replay_tracer.SelfSecondsByLayer()) {
    if (layer != "bench") report->Set("layer." + layer + ".self_s", seconds, "s");
  }
  std::fprintf(stderr, "-- system spans --\n");
  tracer.PrintSummary();
  std::fprintf(stderr, "-- single-threaded replay spans (%.3f s, %.0f updates/s) --\n",
               stats.wall_s, stream.size() / stats.wall_s);
  replay_tracer.PrintSummary();
  report->Op(tracer.AppendJsonLines(options.trace_path), "write trace");
  report->Op(replay_tracer.AppendJsonLines(options.trace_path), "write trace");
}

}  // namespace perfbench
