#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "stream/kronecker_generator.h"
#include "stream/stream_transform.h"

namespace perfbench {

// ---- Report -------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Report::Op(const gz::Status& status, const char* what) {
  ++attempted_;
  if (status.ok()) return true;
  ++failed_;
  Fail(std::string(what) + ": " + status.ToString());
  return false;
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out << (i == 0 ? "" : ", ") << '"' << metrics_[i].name
        << "\": {\"value\": " << value << ", \"unit\": \""
        << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ---- Tracer -------------------------------------------------------------------

Tracer::Tracer(bool enabled, const char* phase)
    : enabled_(enabled), phase_(phase), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int32_t Tracer::Begin(const char* name, Clock::time_point start) {
  if (!enabled_) return -1;
  const int64_t start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, start_ns, start_ns, parent, round_});
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int32_t id, Clock::time_point end) {
  if (id < 0) return;
  spans_[id].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  // Scopes nest lexically, so the span ending is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), start_(Clock::now()) {
  id_ = tracer_->Begin(name, start_);
}

double Tracer::Scope::Stop() {
  if (seconds_ < 0.0) {
    const Clock::time_point end = Clock::now();
    tracer_->End(id_, end);
    seconds_ = std::chrono::duration<double>(end - start_).count();
  }
  return seconds_;
}

double Tracer::BusySeconds(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total += (s.end_ns - s.start_ns) * 1e-9;
  }
  return total;
}

namespace {

// The layer a span belongs to, from the module prefix of its name.
std::string LayerOf(const char* span_name) {
  const char* dot = std::strchr(span_name, '.');
  const std::string module =
      dot == nullptr ? span_name : std::string(span_name, dot - span_name);
  if (module == "work_queue") return "buffer";
  if (module == "sketch_store") return "core";
  return module;
}

// Per-span self time: duration minus the durations of direct children
// (children nest inside their parent, so their sum is the covered part).
std::vector<double> SelfSeconds(const std::vector<Tracer::Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end_ns - spans[i].start_ns) * 1e-9;
  }
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= (s.end_ns - s.start_ns) * 1e-9;
  }
  return self;
}

}  // namespace

std::vector<std::pair<std::string, double>> Tracer::SelfSecondsByLayer()
    const {
  const std::vector<double> self = SelfSeconds(spans_);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_layer[LayerOf(spans_[i].name)] += self[i];
  }
  return {by_layer.begin(), by_layer.end()};
}

void Tracer::PrintSummary() const {
  const std::vector<double> self = SelfSeconds(spans_);
  std::map<std::string, std::pair<size_t, std::pair<double, double>>> rows;
  double total_self = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& row = rows[spans_[i].name];
    ++row.first;
    row.second.first += (spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    row.second.second += self[i];
    total_self += self[i];
  }
  std::fprintf(stderr, "%-34s %8s %12s %12s\n", "span", "count", "total_s",
               "self_s");
  for (const auto& [name, row] : rows) {
    std::fprintf(stderr, "%-34s %8zu %12.6f %12.6f\n", name.c_str(), row.first,
                 row.second.first, row.second.second);
  }
  std::fprintf(stderr, "%-34s %12s %8s\n", "layer", "self_s", "share");
  for (const auto& [layer, seconds] : SelfSecondsByLayer()) {
    std::fprintf(stderr, "%-34s %12.6f %7.1f%%\n", layer.c_str(), seconds,
                 total_self > 0 ? 100.0 * seconds / total_self : 0.0);
  }
}

gz::Status Tracer::AppendJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  if (!out) return gz::Status::IoError("cannot write trace file " + path);
  for (const Span& s : spans_) {
    out << "{\"phase\": \"" << phase_ << "\", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"round\": " << s.round << "}\n";
  }
  out.flush();
  return out ? gz::Status::Ok()
             : gz::Status::IoError("short write to trace file " + path);
}

// ---- Ground truth -------------------------------------------------------------

EdgeSetTruth::EdgeSetTruth(uint64_t num_nodes)
    : n_(num_nodes), bits_((num_nodes * num_nodes + 63) / 64, 0) {}

void EdgeSetTruth::Toggle(const gz::Edge& e) {
  const uint64_t bit = uint64_t{e.u} * n_ + e.v;
  uint64_t& word = bits_[bit / 64];
  const uint64_t mask = uint64_t{1} << (bit % 64);
  word ^= mask;
  if (word & mask) {
    ++num_edges_;
  } else {
    --num_edges_;
  }
}

void EdgeSetTruth::Apply(const gz::GraphUpdate* updates, size_t count) {
  for (size_t i = 0; i < count; ++i) Toggle(updates[i].edge);
}

std::vector<uint32_t> EdgeSetTruth::Labels(size_t* num_components) const {
  std::vector<uint32_t> parent(n_);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (size_t w = 0; w < bits_.size(); ++w) {
    for (uint64_t word = bits_[w]; word != 0; word &= word - 1) {
      const uint64_t bit = w * 64 + static_cast<uint64_t>(__builtin_ctzll(word));
      const uint32_t a = find(static_cast<uint32_t>(bit / n_));
      const uint32_t b = find(static_cast<uint32_t>(bit % n_));
      // The smaller id becomes the root, so roots are component minima.
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  size_t components = 0;
  for (uint32_t i = 0; i < n_; ++i) {
    parent[i] = find(i);
    if (parent[i] == i) ++components;
  }
  *num_components = components;
  return parent;
}

bool SameComponents(const std::vector<uint32_t>& truth_labels,
                    size_t truth_components,
                    const gz::ConnectivityResult& result, std::string* why) {
  if (result.failed) {
    *why = "Boruvka reported failure";
    return false;
  }
  if (result.num_components != truth_components ||
      result.component_of.size() != truth_labels.size()) {
    *why = "component count " + std::to_string(result.num_components) +
           ", expected " + std::to_string(truth_components);
    return false;
  }
  // Relabel the result by the smallest member of each component; the
  // partitions agree exactly when the relabelled arrays are equal.
  std::map<gz::NodeId, uint32_t> first_member;
  for (uint32_t i = 0; i < truth_labels.size(); ++i) {
    const uint32_t label =
        first_member.emplace(result.component_of[i], i).first->second;
    if (label != truth_labels[i]) {
      *why = "node " + std::to_string(i) + " labelled with " +
             std::to_string(label) + ", expected " +
             std::to_string(truth_labels[i]);
      return false;
    }
  }
  return true;
}

std::vector<gz::GraphUpdate> KronStream(int scale, double density,
                                        uint64_t seed) {
  gz::KroneckerParams kp;
  kp.scale = scale;
  kp.density = density;
  kp.seed = seed;
  gz::KroneckerGenerator generator(kp);
  gz::StreamTransformParams tp;
  tp.num_nodes = generator.num_nodes();
  tp.seed = seed;
  return gz::BuildStream(generator.Generate(), tp).updates;
}

// ---- /proc and statistics -------------------------------------------------------

ProcIo ReadProcIo(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/io" : "/proc/" + std::to_string(pid) + "/io";
  ProcIo io;
  std::ifstream in(path);
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") io.rchar = value;
    if (key == "wchar:") io.wchar = value;
  }
  return io;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / kMb;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n < 21) {
    tail.value = values.back();
    tail.percentile = 100.0;
  } else {
    tail.value = values[n - 11];
    tail.percentile = 100.0 * static_cast<double>(n - 10) / n;
  }
  return tail;
}

// ---- Snapshot-side layers ---------------------------------------------------------

void ReportSnapshotLayers(const gz::GraphSnapshot& snapshot, Tracer* tracer,
                          Report* report) {
  // The same snapshot at 1 thread and on the auto pool; median of three
  // each, alternating so drift on the host hits both alike.
  std::vector<double> one_thread, pool;
  for (int i = 0; i < 3; ++i) {
    {
      Tracer::Scope span(tracer, "core.connectivity_1t");
      (void)gz::Connectivity(snapshot, 1);
      one_thread.push_back(span.Stop());
    }
    {
      Tracer::Scope span(tracer, "core.connectivity_pool");
      (void)gz::Connectivity(snapshot, 0);
      pool.push_back(span.Stop());
    }
  }
  const double t1 = Median(one_thread), tp = Median(pool);
  const int threads = gz::ResolveQueryThreads(0);
  report->Set("core.connectivity.busy_1t_s", t1, "s");
  report->Set("core.connectivity.busy_pool_s", tp, "s");
  report->Set("core.connectivity.pool_threads", threads, "count");
  report->Set("core.connectivity.speedup_vs_1t", t1 / tp, "ratio");
  std::fprintf(stderr,
               "boruvka: %.4f s at 1 thread, %.4f s on the %d-thread pool "
               "(speedup %.2fx)\n",
               t1, tp, threads, t1 / tp);

  std::vector<uint8_t> bytes;
  {
    Tracer::Scope span(tracer, "core.serialize");
    bytes = snapshot.Serialize();
    report->Set("core.serialize.busy_s", span.Stop(), "s");
  }
  // Zero blocks over the node records only (the header is not sketch
  // state).
  const size_t records = snapshot.num_nodes() *
                         gz::NodeSketch::SerializedSizeFor(snapshot.params());
  const size_t begin = bytes.size() - records;
  size_t blocks = 0, zero_blocks = 0;
  static const uint8_t kZero[16] = {};
  for (size_t off = begin; off + 16 <= bytes.size(); off += 16) {
    ++blocks;
    if (std::memcmp(bytes.data() + off, kZero, 16) == 0) ++zero_blocks;
  }
  report->Set("core.snapshot.serialized_mb", bytes.size() / kMb, "MB");
  report->Set("core.snapshot.zero_bucket_ratio",
              blocks > 0 ? static_cast<double>(zero_blocks) / blocks : 0.0,
              "ratio");
}

}  // namespace perfbench
