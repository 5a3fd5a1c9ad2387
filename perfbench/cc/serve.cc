// serve_mixed: writes beside reads over the served tier. Two
// `gz_shard --listen` processes on loopback TCP (1 worker each), one
// ShardCluster writer and one QuerySession reader, both driven from
// this thread. Closed loop of rounds: route one slab (half of the
// kron10 stream), ShardCluster::Flush, then the reader's Snapshot and
// Connectivity, checked against the ground truth.
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/graph_zeppelin.h"
#include "distributed/query_session.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_process.h"
#include "distributed/shard_transport.h"
#include "sketch/sketch_kernel.h"

namespace perfbench {
namespace {

constexpr int kScale = 10;  // V = 1024.
constexpr double kDensity = 0.5;
constexpr int kShards = 2;
// Rounds per pass over the stream. Half-stream slabs keep each flush
// dominated by sketching, not by per-batch thread hand-offs, whose cost
// swings with the host's load.
constexpr int kSlabs = 2;
constexpr int kSetups = 9;
constexpr char kSecret[] = "perfbench-loopback-secret";

// One `gz_shard --listen 127.0.0.1:0` child. Stop() waits briefly for
// the orderly exit a coordinator SHUTDOWN triggers, then kills; either
// way the child is reaped and its files removed.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Stop(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  gz::Status Start(const std::string& dir, int index) {
    port_file_ = dir + "/listener" + std::to_string(index) + ".port";
    log_file_ = dir + "/listener" + std::to_string(index) + ".log";
    gz::Result<pid_t> pid = gz::SpawnShardChild(
        gz::DefaultShardBinary(),
        {"--listen", "127.0.0.1:0", "--port-file", port_file_}, log_file_,
        kSecret);
    if (!pid.ok()) return pid.status();
    pid_ = pid.value();
    reaped_ = false;
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < 10.0) {
      long port = 0;
      std::ifstream in(port_file_);
      if (in >> port && port > 0 && port < 65536) {
        endpoint_ = "tcp://127.0.0.1:" + std::to_string(port);
        ::unlink(port_file_.c_str());
        return gz::Status::Ok();
      }
      if (!gz::ShardChildRunning(pid_, &reaped_)) break;
      ::usleep(500);
    }
    return gz::Status::IoError("listener did not publish a port; see " +
                               log_file_);
  }

  void Stop() {
    if (pid_ < 0) return;
    const Clock::time_point start = Clock::now();
    while (gz::ShardChildRunning(pid_, &reaped_) && SecondsSince(start) < 5.0) {
      ::usleep(1000);
    }
    gz::KillShardChild(pid_, &reaped_);
    pid_ = -1;
    ::unlink(port_file_.c_str());
    ::unlink(log_file_.c_str());
  }

  pid_t pid() const { return pid_; }
  const std::string& endpoint() const { return endpoint_; }

 private:
  pid_t pid_ = -1;
  bool reaped_ = true;
  std::string port_file_;
  std::string log_file_;
  std::string endpoint_;
};

// Listeners, writer and reader; members are destroyed reader first.
struct Fleet {
  std::vector<std::unique_ptr<Listener>> listeners;
  std::unique_ptr<gz::ShardCluster> cluster;
  std::unique_ptr<gz::QuerySession> session;

  // Ready for the first update once this returns true.
  bool Start(const gz::GraphZeppelinConfig& base, const std::string& dir,
             Tracer* tracer, Report* report) {
    gz::ShardClusterOptions options;
    options.auth_secret = kSecret;
    gz::QuerySessionOptions reader;
    reader.auth_secret = kSecret;
    {
      Tracer::Scope span(tracer, "distributed.listener_start");
      for (int i = 0; i < kShards; ++i) {
        listeners.push_back(std::make_unique<Listener>());
        if (!report->Op(listeners.back()->Start(dir, i), "listener start")) {
          return false;
        }
        options.shard_endpoints.push_back(listeners.back()->endpoint());
        reader.endpoints.push_back(listeners.back()->endpoint());
      }
    }
    {
      Tracer::Scope span(tracer, "distributed.cluster_start");
      cluster = std::make_unique<gz::ShardCluster>(base, kShards, options);
      if (!report->Op(cluster->Start(), "ShardCluster::Start")) return false;
    }
    Tracer::Scope span(tracer, "distributed.session_connect");
    session = std::make_unique<gz::QuerySession>(reader);
    return report->Op(session->Connect(), "QuerySession::Connect");
  }

  void Stop(Report* report) {
    session.reset();
    if (cluster != nullptr) {
      report->Op(cluster->Shutdown(), "ShardCluster::Shutdown");
      cluster.reset();
    }
    listeners.clear();
  }
};

struct Samples {
  std::vector<double> ingest_rate;
  std::vector<double> query_ms;
  std::vector<double> boruvka_rounds;
  uint64_t refresh_rounds = 0;
};

// Runs rounds on `fleet` until `seconds` have passed (at least one), or
// exactly `rounds` when rounds > 0. Round r applies slab r % kSlabs;
// odd passes apply the stream with insert and delete swapped, which
// keeps it a valid turnstile stream.
bool RunRounds(Fleet* fleet, const std::vector<gz::GraphUpdate>& stream,
               EdgeSetTruth* truth, double seconds, int rounds, Tracer* tracer,
               Report* report, Samples* samples) {
  const Clock::time_point start = Clock::now();
  const size_t slab_size = (stream.size() + kSlabs - 1) / kSlabs;
  for (int r = 0;; ++r) {
    if (rounds > 0 ? r >= rounds : r > 0 && SecondsSince(start) >= seconds) {
      return true;
    }
    tracer->set_round(r);
    const size_t begin = std::min(stream.size(), (r % kSlabs) * slab_size);
    std::vector<gz::GraphUpdate> slab(
        stream.begin() + begin,
        stream.begin() + std::min(stream.size(), begin + slab_size));
    if ((r / kSlabs) % 2 == 1) {
      for (gz::GraphUpdate& u : slab) {
        u.type = u.type == gz::UpdateType::kInsert ? gz::UpdateType::kDelete
                                                   : gz::UpdateType::kInsert;
      }
    }
    truth->Apply(slab.data(), slab.size());
    size_t components = 0;
    const std::vector<uint32_t> labels = truth->Labels(&components);

    double ingest_s = 0.0;
    {
      Tracer::Scope span(tracer, "distributed.cluster_update");
      const gz::Status s = fleet->cluster->Update(slab.data(), slab.size());
      ingest_s += span.Stop();
      if (!report->Op(s, "ShardCluster::Update")) return false;
    }
    {
      Tracer::Scope span(tracer, "distributed.cluster_flush");
      const gz::Status s = fleet->cluster->Flush();
      ingest_s += span.Stop();
      if (!report->Op(s, "ShardCluster::Flush")) return false;
    }
    samples->ingest_rate.push_back(slab.size() / ingest_s);

    const Clock::time_point query_start = Clock::now();
    const gz::GraphSnapshot* snapshot = nullptr;
    {
      Tracer::Scope span(tracer, "distributed.session_snapshot");
      const gz::Status s = fleet->session->Snapshot(&snapshot);
      span.Stop();
      if (!report->Op(s, "QuerySession::Snapshot")) return false;
    }
    gz::ConnectivityResult result;
    {
      Tracer::Scope span(tracer, "core.connectivity");
      result = gz::Connectivity(*snapshot, 0);
    }
    std::string why;
    bool same = false;
    {
      Tracer::Scope span(tracer, "bench.check");
      same = SameComponents(labels, components, result, &why);
    }
    samples->query_ms.push_back(SecondsSince(query_start) * 1e3);
    samples->boruvka_rounds.push_back(result.rounds_used);
    samples->refresh_rounds += fleet->session->last_refresh_rounds();
    report->Answer(same);
    if (!same) {
      report->Fail("round " + std::to_string(r) + ": " + why);
      return false;
    }
    if (r == 0) {
      // Once per fleet: the reader's fold equals the writer's.
      Tracer::Scope span(tracer, "bench.writer_snapshot");
      gz::Result<gz::GraphSnapshot> full = fleet->cluster->Snapshot();
      if (!report->Op(full.status(), "ShardCluster::Snapshot")) return false;
      const bool equal = full.value() == *snapshot;
      report->Answer(equal);
      if (!equal) {
        report->Fail("reader snapshot differs from ShardCluster::Snapshot()");
        return false;
      }
    }
  }
}

double ShardRamMb(Fleet* fleet, Report* report) {
  double total = 0.0;
  for (int s = 0; s < kShards; ++s) {
    gz::Result<gz::ShardStats> stats = fleet->cluster->Stats(s);
    if (!report->Op(stats.status(), "ShardCluster::Stats")) return 0.0;
    total += stats.value().ram_bytes / kMb;
  }
  return total;
}

uint64_t ShardReadBytes(const Fleet& fleet) {
  uint64_t total = 0;
  for (const auto& listener : fleet.listeners) {
    total += ReadProcIo(listener->pid()).rchar;
  }
  return total;
}

}  // namespace

void RunServeMixed(const Options& options, Report* report) {
  gz::GraphZeppelinConfig base;
  base.num_nodes = uint64_t{1} << kScale;
  base.seed = options.seed;
  base.num_workers = 1;
  base.disk_dir = options.work_dir;
  const std::vector<gz::GraphUpdate> stream =
      KronStream(kScale, kDensity, options.seed);
  std::fprintf(stderr,
               "params: V=%llu updates=%zu density=%.2f slabs/pass=%d "
               "shards=%d workers/shard=1 kernel=%s\n",
               static_cast<unsigned long long>(base.num_nodes), stream.size(),
               kDensity, kSlabs, kShards,
               gz::SketchKernelName(gz::ActiveSketchKernel()));
  ResetPeakRss();

  Tracer untraced(false, "system");
  std::vector<double> setups;
  auto set_up = [&](Fleet* fleet, Tracer* tracer) {
    const Clock::time_point start = Clock::now();
    if (!fleet->Start(base, options.work_dir, tracer, report)) return false;
    setups.push_back(SecondsSince(start));
    return true;
  };

  if (!options.trace) {
    // Extra set-ups before the measured fleet, for the set-up median.
    for (int i = 1; i < kSetups; ++i) {
      Fleet fleet;
      const bool ok = set_up(&fleet, &untraced);
      fleet.Stop(report);
      if (!ok) return;
    }
    Fleet fleet;
    EdgeSetTruth truth(base.num_nodes);
    Samples samples;
    const bool ok = set_up(&fleet, &untraced) &&
                    RunRounds(&fleet, stream, &truth, options.seconds, 0,
                              &untraced, report, &samples);
    const double ram_mb = ok ? ShardRamMb(&fleet, report) : 0.0;
    fleet.Stop(report);
    if (!ok) return;
    const Tail tail = TailOf(samples.query_ms);
    report->Set("setup_s", Median(setups), "s");
    report->Set("ingest_updates_per_s", Median(samples.ingest_rate), "1/s");
    report->Set("query_p50_ms", Median(samples.query_ms), "ms");
    report->Set("query_tail_ms", tail.value, "ms");
    report->Set("ram_mb", ram_mb, "MB");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    std::fprintf(stderr, "rounds=%zu setups=%zu query tail = p%.1f of %zu samples\n",
                 samples.query_ms.size(), setups.size(), tail.percentile,
                 tail.samples);
    return;
  }

  // Traced run: five passes (in, out, ..., in) untraced, then the same
  // traced on a fresh fleet, so both units do identical work and end
  // on the whole graph.
  const int unit_rounds = 5 * kSlabs;
  double plain_s = 0.0;
  {
    Fleet fleet;
    EdgeSetTruth truth(base.num_nodes);
    Samples samples;
    bool ok = set_up(&fleet, &untraced);
    const Clock::time_point start = Clock::now();
    ok = ok && RunRounds(&fleet, stream, &truth, 0, unit_rounds, &untraced,
                         report, &samples);
    plain_s = SecondsSince(start);
    fleet.Stop(report);
    if (!ok) return;
  }
  Tracer tracer(true, "system");
  Fleet fleet;
  EdgeSetTruth truth(base.num_nodes);
  Samples samples;
  if (!set_up(&fleet, &untraced)) {
    fleet.Stop(report);
    return;
  }
  const ProcIo io_before = ReadProcIo(0);
  const uint64_t shard_read_before = ShardReadBytes(fleet);
  const gz::SnapshotCache& cache = fleet.session->cache();
  const uint64_t pulls = cache.range_pulls(), refreshes = cache.refreshes(),
                 cold = cache.cold_builds();
  const Clock::time_point start = Clock::now();
  const bool ok = RunRounds(&fleet, stream, &truth, 0, unit_rounds, &tracer,
                            report, &samples);
  const double traced_s = SecondsSince(start);
  const ProcIo io_after = ReadProcIo(0);
  const uint64_t shard_read_after = ShardReadBytes(fleet);
  for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
    if (layer != "bench") report->Set("layer." + layer + ".self_s", seconds, "s");
  }
  if (ok) {
    report->Set("core.snapshot_cache.range_pulls", cache.range_pulls() - pulls,
                "count");
    report->Set("core.snapshot_cache.refreshes", cache.refreshes() - refreshes,
                "count");
    report->Set("core.snapshot_cache.cold_builds", cache.cold_builds() - cold,
                "count");
    const gz::GraphSnapshot* snapshot = nullptr;
    if (report->Op(fleet.session->Snapshot(&snapshot),
                   "QuerySession::Snapshot")) {
      ReportSnapshotLayers(*snapshot, &tracer, report);
    }
  }
  fleet.Stop(report);
  if (!ok) return;

  report->Set("distributed.cluster_update.busy_s",
              tracer.BusySeconds("distributed.cluster_update"), "s");
  report->Set("distributed.cluster_flush.wait_s",
              tracer.BusySeconds("distributed.cluster_flush"), "s");
  report->Set("distributed.session_snapshot.busy_s",
              tracer.BusySeconds("distributed.session_snapshot"), "s");
  report->Set("distributed.wire_out_mb",
              (shard_read_after - shard_read_before) / kMb, "MB");
  report->Set("distributed.wire_in_mb", (io_after.rchar - io_before.rchar) / kMb,
              "MB");
  report->Set("distributed.refresh_rounds",
              double(samples.refresh_rounds) / samples.query_ms.size(), "count");
  report->Set("io.read_mb", (io_after.rchar - io_before.rchar) / kMb, "MB");
  report->Set("io.write_mb", (io_after.wchar - io_before.wchar) / kMb, "MB");
  report->Set("core.connectivity.busy_s",
              tracer.BusySeconds("core.connectivity"), "s");
  report->Set("core.connectivity.rounds", Median(samples.boruvka_rounds),
              "count");
  report->Set("trace.unit_wall_s", traced_s, "s");
  report->Set("trace.overhead_ratio", traced_s / plain_s - 1.0, "ratio");
  std::fprintf(stderr,
               "%d traced rounds %.3f s vs untraced %.3f s (overhead %+.1f%%)\n",
               unit_rounds, traced_s, plain_s,
               100.0 * (traced_s / plain_s - 1.0));
  tracer.PrintSummary();
  report->Op(tracer.AppendJsonLines(options.trace_path), "write trace");
}

}  // namespace perfbench
