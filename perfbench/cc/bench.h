// Shared pieces of the gz_perfbench binary: run options, the
// result report, the span tracer, the ground-truth connectivity check,
// and small /proc and statistics helpers.
//
// gz_perfbench calls only the library's public API. Every timing it
// reports is taken around those calls; stream generation and the
// ground-truth computation are never inside a timed region.
#ifndef GZ_PERFBENCH_BENCH_H_
#define GZ_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for backing files and listener logs; must be
  // empty again when the workload returns.
  std::string work_dir;
  // Where the traced run writes its spans.
  std::string trace_path;
};

// The last stdout line of a run: correctness, operation counts and
// named metrics, in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Counts one system operation; a non-OK status also marks the run
  // incorrect and is logged to stderr with `what`.
  bool Op(const gz::Status& status, const char* what);
  // Counts one answered query; `ok` false marks it failed.
  void Answer(bool ok) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      correct_ = false;
    }
  }
  // Counts one system operation that reports no status (void calls).
  void Attempt() { ++attempted_; }
  void Fail(const std::string& why);
  bool correct() const { return correct_; }
  uint64_t failed() const { return failed_; }
  uint64_t attempted() const { return attempted_; }
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Span recorder. A span is recorded only when tracing is enabled, but a
// Scope always measures its duration, so untraced runs time the same
// call sites with the same clock reads.
class Tracer {
 public:
  struct Span {
    const char* name;  // "<module>.<operation>", a string literal.
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // Index of the enclosing span, -1 at the root.
    int32_t round;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope() { Stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Ends the span (idempotent) and returns its duration in seconds.
    double Stop();

   private:
    Tracer* tracer_;
    int32_t id_;
    Clock::time_point start_;
    double seconds_ = -1.0;
  };

  // `phase` tags every span this tracer writes ("system", "replay").
  Tracer(bool enabled, const char* phase);
  void set_round(int round) { round_ = round; }

  // Sum of the durations of the spans named `name`.
  double BusySeconds(const char* name) const;
  // Self time (duration minus the time covered by child spans) summed
  // per layer, keyed by layer name.
  std::vector<std::pair<std::string, double>> SelfSecondsByLayer() const;
  // Prints the per-span and per-layer tables to stderr.
  void PrintSummary() const;
  // Appends one JSON object per span, one per line.
  gz::Status AppendJsonLines(const std::string& path) const;

 private:
  int32_t Begin(const char* name, Clock::time_point start);
  void End(int32_t id, Clock::time_point end);

  bool enabled_;
  const char* phase_;
  int32_t round_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // Stack of open span indices.
};

// Ground truth: the edge set the generated updates leave behind,
// tracked independently of the library as one bit per ordered pair.
class EdgeSetTruth {
 public:
  explicit EdgeSetTruth(uint64_t num_nodes);
  void Apply(const gz::GraphUpdate* updates, size_t count);
  uint64_t num_edges() const { return num_edges_; }
  // Component label per node (the smallest node id of its component),
  // from a union-find over the current edge set.
  std::vector<uint32_t> Labels(size_t* num_components) const;

 private:
  void Toggle(const gz::Edge& e);

  uint64_t n_;
  uint64_t num_edges_ = 0;
  std::vector<uint64_t> bits_;  // Bit u * n + v for u < v.
};

// True when `result` names exactly the partition `truth_labels`
// describes; otherwise false with the first difference in *why.
bool SameComponents(const std::vector<uint32_t>& truth_labels,
                    size_t truth_components,
                    const gz::ConnectivityResult& result, std::string* why);

// The kron stream of the ingest workloads: Kronecker graph at `scale`
// with the given density, turned into a stream with churn, phantom
// edges and disconnected nodes.
std::vector<gz::GraphUpdate> KronStream(int scale, double density,
                                        uint64_t seed);

// /proc helpers. Counters read 0 when the file is unavailable.
struct ProcIo {
  uint64_t rchar = 0;  // Bytes passed to read()/pread(), sockets included.
  uint64_t wchar = 0;  // Bytes passed to write()/pwrite().
};
ProcIo ReadProcIo(int pid);  // pid 0 = this process.
double PeakRssMb();
// Restarts the peak-RSS high-water mark, so generation buffers freed
// before the measured phase do not count.
void ResetPeakRss();

double Median(std::vector<double> values);
// The highest sample rank with at least ten samples beyond it: sorted
// ascending, x[n - 11] is the tail and (n - 10) / n its percentile.
// Below 21 samples that rank is not above the median, so the tail is the
// maximum (percentile 100, no sample beyond it).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

// Per-workload entry points.
void RunIngest(const Options& options, bool on_disk, Report* report);
void RunServeMixed(const Options& options, Report* report);

// Query-side layer metrics shared by every workload's traced run:
// Boruvka at 1 thread vs the auto pool on `snapshot`, and its
// serialization (time, size, all-zero 16-byte blocks).
void ReportSnapshotLayers(const gz::GraphSnapshot& snapshot, Tracer* tracer,
                          Report* report);

constexpr double kMb = 1e6;

}  // namespace perfbench

#endif  // GZ_PERFBENCH_BENCH_H_
