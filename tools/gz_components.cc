// gz_components: compute the connected components of a stream file
// with GraphZeppelin — the end-to-end CLI entry point.
//
// Usage:
//   gz_components --stream stream.gzst
//     [--buffering leaf|tree] [--storage ram|disk] [--workers N]
//     [--gutter-fraction F] [--seed N] [--checkpoint out.ckpt]
//     [--query-threads N] (Boruvka pool; 0 = auto)
//     [--top K]   (print the K largest components)
//     [--heavy-hitters K] (track a count-min side sketch during the
//                          ingest and print the top-K edges and degrees
//                          from the writer's own fold — in sharded mode
//                          the coordinator's sum-merge over the shards)
//
// Sharded coordinator mode — ingest the stream through a running
// `gz_shard --listen` fleet instead of an in-process instance (one
// listener per shard; this process holds the writer session):
//   gz_components --stream stream.gzst
//     --shard-endpoints tcp://H:P,tcp://H:P,...
//     [--replication R]    (R listeners per shard, shard-major: the
//                           endpoint list is replica 0..R-1 of shard 0,
//                           then of shard 1, ...; its length must be a
//                           multiple of R)
//     [--auth-secret SECRET | --auth-secret-file PATH]
//     [--hold-seconds N]   (after the query, keep the writer session —
//                           and so the shard instances — alive for N
//                           seconds, so gz_query readers can serve)
//
// The checkpoint file is a serialized GraphSnapshot: gz_snapshot can
// re-query it or merge it with snapshots from same-seed instances.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/connectivity.h"
#include "core/graph_zeppelin.h"
#include "core/stream_ingestor.h"
#include "distributed/shard_cluster.h"
#include "stream/stream_file.h"
#include "tools/flags.h"
#include "util/mem_usage.h"
#include "util/timer.h"

namespace {

// Writer-side heavy-hitter report: one regexable line per ranked entry
// (the CI e2e step compares these against a gz_query reader's fold of
// the same cluster).
void PrintHeavyHitters(const gz::HeavyHitterSketch& hh, int top) {
  using namespace gz;
  const uint64_t num_nodes = hh.params().num_nodes;
  for (const HeavyHitterEntry& entry :
       hh.TopEdges(static_cast<size_t>(top))) {
    const Edge e = IndexToEdge(entry.key, num_nodes);
    std::printf("heavy-hitter edge %llu-%llu count %lld\n",
                static_cast<unsigned long long>(e.u),
                static_cast<unsigned long long>(e.v),
                static_cast<long long>(entry.count));
  }
  for (const HeavyHitterEntry& entry :
       hh.TopDegrees(static_cast<size_t>(top))) {
    std::printf("heavy-hitter degree %llu count %lld\n",
                static_cast<unsigned long long>(entry.key),
                static_cast<long long>(entry.count));
  }
}

// Sharded coordinator mode: this process is the cluster's writer —
// routes the stream to a listener fleet, folds the shard snapshots for
// the query, and (with --hold-seconds) stays connected afterwards so
// the shard instances keep serving gz_query reader sessions.
int RunSharded(const gz::tools::Flags& flags,
               gz::GraphZeppelinConfig config,
               const std::string& stream_path) {
  using namespace gz;
  const std::vector<std::string> endpoints =
      tools::SplitCommaList(flags.GetString("shard-endpoints", ""));
  const int replication =
      static_cast<int>(flags.GetInt("replication", 1));
  if (replication < 1) {
    std::fprintf(stderr, "--replication wants a factor >= 1, got %d\n",
                 replication);
    return 2;
  }
  if (endpoints.size() % replication != 0) {
    std::fprintf(stderr,
                 "--shard-endpoints lists %zu listeners, not a multiple of "
                 "--replication %d (shard-major: R consecutive endpoints "
                 "per shard)\n",
                 endpoints.size(), replication);
    return 2;
  }
  ShardClusterOptions copts;
  copts.auth_secret = tools::ResolveAuthSecret(flags, "gz_components");
  copts.shard_endpoints = endpoints;
  copts.replication_factor = replication;
  ShardCluster cluster(
      config, static_cast<int>(endpoints.size()) / replication, copts);
  const auto failed = [](const char* what, const Status& status) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    return 1;
  };
  Status s = cluster.Start();
  if (!s.ok()) return failed("cluster init", s);

  StreamReader reader;
  s = reader.Open(stream_path);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  WallTimer timer;
  std::vector<GraphUpdate> chunk;
  chunk.reserve(1 << 16);
  uint64_t ingested = 0;
  GraphUpdate update;
  while (reader.Next(&update)) {
    chunk.push_back(update);
    if (chunk.size() == chunk.capacity()) {
      s = cluster.Update(chunk.data(), chunk.size());
      if (!s.ok()) return failed("cluster update", s);
      ingested += chunk.size();
      chunk.clear();
    }
  }
  if (!reader.status().ok()) {
    std::fprintf(stderr, "stream read failed: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }
  if (!chunk.empty()) {
    s = cluster.Update(chunk.data(), chunk.size());
    if (!s.ok()) return failed("cluster update", s);
    ingested += chunk.size();
  }
  s = cluster.Flush();
  if (!s.ok()) return failed("cluster flush", s);
  const double ingest_seconds = timer.Seconds();

  WallTimer query_timer;
  ConnectivityResult result;
  {
    Result<GraphSnapshot> snapshot = cluster.Snapshot();
    if (!snapshot.ok()) return failed("snapshot fold", snapshot.status());
    result = Connectivity(snapshot.value(), config.query_threads);
  }
  const double query_seconds = query_timer.Seconds();
  if (result.failed) {
    std::fprintf(stderr, "sketch query failed; re-run with another seed\n");
    return 1;
  }

  char rate_buf[32];
  std::printf("ingested  %llu updates across %d shards in %.2fs "
              "(%s updates/s)\n",
              static_cast<unsigned long long>(ingested),
              cluster.num_shards(), ingest_seconds,
              FormatRate(static_cast<double>(ingested) / ingest_seconds,
                         rate_buf, sizeof(rate_buf)));
  std::printf("query     %.3fs, %d Boruvka rounds\n", query_seconds,
              result.rounds_used);
  std::printf("components %zu, spanning forest %zu edges\n",
              result.num_components, result.spanning_forest.size());

  const int hh_top = static_cast<int>(flags.GetInt("heavy-hitters", 0));
  if (hh_top > 0) {
    const Result<HeavyHitterSketch> hh = cluster.HeavyHitters();
    if (!hh.ok()) return failed("heavy-hitter fold", hh.status());
    PrintHeavyHitters(hh.value(), hh_top);
  }

  const int hold = static_cast<int>(flags.GetInt("hold-seconds", 0));
  if (hold > 0) {
    std::printf("holding writer session for %ds (readers may query)\n",
                hold);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(hold));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gz;
  tools::Flags flags(argc, argv);

  const std::string stream_path = flags.GetString("stream", "");
  if (stream_path.empty()) {
    std::fprintf(stderr,
                 "usage: gz_components --stream FILE [--buffering leaf|tree]"
                 " [--storage ram|disk] [--workers N]\n"
                 "       [--gutter-fraction F] [--seed N] "
                 "[--checkpoint FILE] [--query-threads N] [--top K] "
                 "[--heavy-hitters K]\n"
                 "       [--shard-endpoints tcp://H:P,...] "
                 "[--replication R] "
                 "[--auth-secret S | --auth-secret-file PATH] "
                 "[--hold-seconds N]\n");
    return 2;
  }

  StreamReader reader;
  Status s = reader.Open(stream_path);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  GraphZeppelinConfig config;
  config.num_nodes = reader.num_nodes();
  config.seed = flags.GetInt("seed", 42);
  config.num_workers = static_cast<int>(flags.GetInt("workers", 2));
  config.gutter_fraction = flags.GetDouble("gutter-fraction", 0.5);
  if (flags.GetString("buffering", "leaf") == "tree") {
    config.buffering = GraphZeppelinConfig::Buffering::kGutterTree;
  }
  if (flags.GetString("storage", "ram") == "disk") {
    config.storage = GraphZeppelinConfig::Storage::kDisk;
  }
  config.query_threads = static_cast<int>(flags.GetInt("query-threads", 0));
  const int hh_top = static_cast<int>(flags.GetInt("heavy-hitters", 0));
  if (hh_top > 0) {
    config.heavy_hitter_width = 2048;  // Defaults elsewhere in the struct.
  }

  if (!flags.GetString("shard-endpoints", "").empty()) {
    reader.Close();  // Only needed it for the node count.
    return RunSharded(flags, config, stream_path);
  }

  GraphZeppelin gz(config);
  s = gz.Init();
  if (!s.ok()) {
    std::fprintf(stderr, "init failed: %s\n", s.ToString().c_str());
    return 1;
  }

  reader.Close();  // Only needed it for the node count.

  // Bulk chunked ingestion (including the final flush) via the shared
  // stream driver.
  WallTimer timer;
  const Result<uint64_t> ingested = IngestStreamFile(&gz, stream_path);
  if (!ingested.ok()) {
    std::fprintf(stderr, "stream read failed: %s\n",
                 ingested.status().ToString().c_str());
    return 1;
  }
  const double ingest_seconds = timer.Seconds();

  WallTimer query_timer;
  const ConnectivityResult result = gz.ListSpanningForest();
  const double query_seconds = query_timer.Seconds();
  if (result.failed) {
    std::fprintf(stderr, "sketch query failed; re-run with another seed\n");
    return 1;
  }

  char rate_buf[32], ram_buf[32];
  std::printf("ingested  %llu updates in %.2fs (%s updates/s)\n",
              static_cast<unsigned long long>(gz.num_updates_ingested()),
              ingest_seconds,
              FormatRate(static_cast<double>(gz.num_updates_ingested()) /
                             ingest_seconds,
                         rate_buf, sizeof(rate_buf)));
  std::printf("query     %.3fs, %d Boruvka rounds\n", query_seconds,
              result.rounds_used);
  std::printf("memory    %s RAM",
              FormatBytes(gz.RamByteSize(), ram_buf, sizeof(ram_buf)));
  if (gz.DiskByteSize() > 0) {
    char disk_buf[32];
    std::printf(" + %s disk",
                FormatBytes(gz.DiskByteSize(), disk_buf, sizeof(disk_buf)));
  }
  std::printf("\ncomponents %zu, spanning forest %zu edges\n",
              result.num_components, result.spanning_forest.size());

  if (hh_top > 0 && gz.heavy_hitters() != nullptr) {
    PrintHeavyHitters(*gz.heavy_hitters(), hh_top);
  }

  const int top = static_cast<int>(flags.GetInt("top", 5));
  if (top > 0) {
    auto components = ComponentsFromLabels(result.component_of);
    std::sort(components.begin(), components.end(),
              [](const auto& a, const auto& b) { return a.size() > b.size(); });
    for (int i = 0; i < top && i < static_cast<int>(components.size()); ++i) {
      std::printf("  component %d: %zu nodes\n", i + 1,
                  components[i].size());
    }
  }

  const std::string checkpoint = flags.GetString("checkpoint", "");
  if (!checkpoint.empty()) {
    s = gz.SaveCheckpoint(checkpoint);
    if (!s.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("checkpoint written to %s\n", checkpoint.c_str());
  }
  return 0;
}
