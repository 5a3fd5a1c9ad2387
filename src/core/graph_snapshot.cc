#include "core/graph_snapshot.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "sketch/node_record.h"
#include "util/check.h"

namespace gz {
namespace {

// Shared by checkpoint files and network frames; bump the trailing
// version digits on layout changes.
constexpr char kSnapshotMagic[8] = {'G', 'Z', 'S', 'N', 'A', 'P', '0', '1'};
// Pre-GraphSnapshot checkpoints: identical byte layout under a
// different magic. Accepted on read so old checkpoints stay restorable.
constexpr char kLegacyCheckpointMagic[8] = {'G', 'Z', 'C', 'K',
                                            'P', 'T', '0', '1'};

constexpr size_t kHeaderBytes = sizeof(kSnapshotMagic) +
                                sizeof(uint64_t) +  // num_nodes
                                sizeof(uint64_t) +  // seed
                                sizeof(int32_t) +   // cols
                                sizeof(int32_t) +   // rounds
                                sizeof(uint64_t);   // num_updates

// Node-range deltas (migration units) use their own magic: a range is
// not a whole snapshot and must never be mistaken for one.
constexpr char kRangeMagic[8] = {'G', 'Z', 'S', 'N', 'R', 'G', '0', '1'};

constexpr size_t kRangeHeaderBytes = sizeof(kRangeMagic) +
                                     sizeof(uint64_t) +  // num_nodes
                                     sizeof(uint64_t) +  // seed
                                     sizeof(int32_t) +   // cols
                                     sizeof(int32_t) +   // rounds
                                     sizeof(uint64_t) +  // lo
                                     sizeof(uint64_t);   // hi

struct SnapshotHeader {
  NodeSketchParams params;
  uint64_t num_updates = 0;
};

void WriteHeader(const NodeSketchParams& params, uint64_t num_updates,
                 uint8_t* out) {
  std::memcpy(out, kSnapshotMagic, sizeof(kSnapshotMagic));
  out += sizeof(kSnapshotMagic);
  const uint64_t num_nodes = params.num_nodes;
  const uint64_t seed = params.seed;
  const int32_t cols = params.cols;
  const int32_t rounds = params.rounds;
  std::memcpy(out, &num_nodes, sizeof(num_nodes));
  out += sizeof(num_nodes);
  std::memcpy(out, &seed, sizeof(seed));
  out += sizeof(seed);
  std::memcpy(out, &cols, sizeof(cols));
  out += sizeof(cols);
  std::memcpy(out, &rounds, sizeof(rounds));
  out += sizeof(rounds);
  std::memcpy(out, &num_updates, sizeof(num_updates));
}

// Parses and sanity-checks the fixed-size header. The bounds are
// generous but keep a garbage header from driving a huge allocation.
Status ParseHeader(const uint8_t* in, SnapshotHeader* header) {
  if (std::memcmp(in, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0 &&
      std::memcmp(in, kLegacyCheckpointMagic,
                  sizeof(kLegacyCheckpointMagic)) != 0) {
    return Status::InvalidArgument("not a GraphSnapshot: bad magic");
  }
  in += sizeof(kSnapshotMagic);
  uint64_t num_nodes = 0, seed = 0, num_updates = 0;
  int32_t cols = 0, rounds = 0;
  std::memcpy(&num_nodes, in, sizeof(num_nodes));
  in += sizeof(num_nodes);
  std::memcpy(&seed, in, sizeof(seed));
  in += sizeof(seed);
  std::memcpy(&cols, in, sizeof(cols));
  in += sizeof(cols);
  std::memcpy(&rounds, in, sizeof(rounds));
  in += sizeof(rounds);
  std::memcpy(&num_updates, in, sizeof(num_updates));
  // num_nodes is capped at the NodeId (uint32) range; the geometry caps
  // keep one record's size sane. Together with the overflow guard below
  // they make a garbage header an error, never a huge allocation.
  if (num_nodes < 2 || num_nodes > (1ULL << 32) || cols < 1 ||
      cols > 1024 || rounds < 1 || rounds > 4096) {
    return Status::InvalidArgument("malformed GraphSnapshot header");
  }
  header->params.num_nodes = num_nodes;
  header->params.seed = seed;
  header->params.cols = cols;
  header->params.rounds = rounds;
  header->num_updates = num_updates;
  const size_t record = NodeSketch::SerializedSizeFor(header->params);
  if (num_nodes > (SIZE_MAX - kHeaderBytes) / record) {
    return Status::InvalidArgument("malformed GraphSnapshot header");
  }
  return Status::Ok();
}

// Expected total byte size of the snapshot `header` describes.
size_t ExpectedBytes(const SnapshotHeader& header) {
  return kHeaderBytes + header.params.num_nodes *
                            NodeSketch::SerializedSizeFor(header.params);
}

// Opens `path` and parses the snapshot header found at `offset` bytes
// in (callers embedding a snapshot stream after their own prefix pass
// its size). On success the stream is positioned at the first node
// record and the body length has been verified to cover every record
// (trailing bytes are tolerated).
Status OpenSnapshotFile(const std::string& path, FILE** out,
                        SnapshotHeader* header, size_t offset = 0) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open snapshot file: " + path);
  }
  if (offset != 0 &&
      std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek snapshot file: " + path);
  }
  uint8_t header_buf[kHeaderBytes];
  if (std::fread(header_buf, 1, kHeaderBytes, f) != kHeaderBytes) {
    std::fclose(f);
    return Status::InvalidArgument("malformed snapshot header: " + path);
  }
  Status s = ParseHeader(header_buf, header);
  if (!s.ok()) {
    std::fclose(f);
    return s;
  }
  // Size check up front: a corrupt node count must not drive the
  // caller's allocations past what the file can actually back.
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek snapshot file: " + path);
  }
  const long file_bytes = std::ftell(f);
  if (file_bytes < 0 || static_cast<size_t>(file_bytes) <
                            offset + ExpectedBytes(*header)) {
    std::fclose(f);
    return Status::IoError("truncated snapshot file: " + path);
  }
  if (std::fseek(f, static_cast<long>(offset + kHeaderBytes), SEEK_SET) !=
      0) {
    std::fclose(f);
    return Status::IoError("cannot seek snapshot file: " + path);
  }
  *out = f;
  return Status::Ok();
}

}  // namespace

namespace {

NodeSketchParams ResolvedParams(NodeSketchParams params) {
  if (params.rounds <= 0) {
    params.rounds = NodeSketch::DefaultRounds(params.num_nodes);
  }
  return params;
}

}  // namespace

GraphSnapshot::GraphSnapshot(const NodeSketchParams& params,
                             SketchArena records, uint64_t num_updates)
    : params_(ResolvedParams(params)),
      records_(std::move(records)),
      num_updates_(num_updates) {
  GZ_CHECK_MSG(!records_.empty(), "snapshot needs node records");
  GZ_CHECK_MSG(records_.num_records() == params_.num_nodes,
               "need one node record per vertex");
  GZ_CHECK_MSG(records_.record_bytes() ==
                   NodeSketch::SerializedSizeFor(params_),
               "node record size does not match the params");
}

GraphSnapshot GraphSnapshot::Zero(const NodeSketchParams& params) {
  return GraphSnapshot(
      params,
      SketchArena::Zeroed(params.num_nodes,
                          NodeSketch::SerializedSizeFor(params)),
      0);
}

const NodeSketchParams& GraphSnapshot::params() const {
  GZ_CHECK_MSG(valid(), "empty snapshot");
  return params_;
}

const uint8_t* GraphSnapshot::record(NodeId node) const {
  GZ_CHECK_MSG(node < num_nodes(), "node id out of range");
  return records_.record(node);
}

void GraphSnapshot::LoadSketch(NodeId node, NodeSketch* out) const {
  GZ_CHECK_MSG(out->params() == params(), "sketch params mismatch");
  out->DeserializeFrom(record(node));
}

uint8_t* GraphSnapshot::MutableRecords() {
  records_.MakeUnique();
  return records_.mutable_data();
}

bool operator==(const GraphSnapshot& a, const GraphSnapshot& b) {
  if (a.num_updates_ != b.num_updates_ || a.valid() != b.valid()) {
    return false;
  }
  if (!a.valid()) return true;
  return a.params_ == b.params_ &&
         (a.records_.SharesWith(b.records_) ||
          std::memcmp(a.records_.data(), b.records_.data(),
                      a.records_.size_bytes()) == 0);
}

Status GraphSnapshot::Merge(const GraphSnapshot& other) {
  if (!valid() || !other.valid()) {
    return Status::InvalidArgument("cannot merge an empty snapshot");
  }
  if (!(params() == other.params())) {
    return Status::InvalidArgument(
        "snapshot params mismatch: merge requires identical seed, node "
        "bound and sketch geometry");
  }
  // Held across the clone, so merging a snapshot with a copy of itself
  // reads the pre-merge bytes.
  const SketchArena source = other.records_;
  XorBytes(MutableRecords(), source.data(), source.size_bytes());
  num_updates_ += other.num_updates_;
  return Status::Ok();
}

Status GraphSnapshot::MergeNodeDelta(NodeId node, const NodeSketch& delta) {
  if (!valid()) return Status::InvalidArgument("empty snapshot");
  if (node >= num_nodes()) {
    return Status::InvalidArgument("node id out of range");
  }
  if (!(delta.params() == params())) {
    return Status::InvalidArgument(
        "delta sketch params do not match this snapshot");
  }
  delta.XorInto(MutableRecords() + node * record_bytes());
  return Status::Ok();
}

Status GraphSnapshot::MergeNodeRecords(uint64_t lo, uint64_t hi,
                                       const uint8_t* records) {
  if (!valid()) return Status::InvalidArgument("empty snapshot");
  if (!(lo <= hi && hi <= num_nodes())) {
    return Status::InvalidArgument("node range out of bounds");
  }
  XorBytes(MutableRecords() + lo * record_bytes(), records,
           (hi - lo) * record_bytes());
  return Status::Ok();
}

size_t GraphSnapshot::SerializedSize() const {
  GZ_CHECK_MSG(valid(), "empty snapshot");
  return kHeaderBytes + records_.size_bytes();
}

size_t GraphSnapshot::SerializedSizeFor(const NodeSketchParams& params) {
  return kHeaderBytes +
         params.num_nodes * NodeSketch::SerializedSizeFor(params);
}

std::vector<uint8_t> GraphSnapshot::Serialize() const {
  std::vector<uint8_t> out(SerializedSize());
  WriteHeader(params(), num_updates_, out.data());
  std::memcpy(out.data() + kHeaderBytes, records_.data(),
              records_.size_bytes());
  return out;
}

Result<GraphSnapshot> GraphSnapshot::Deserialize(const uint8_t* data,
                                                 size_t size) {
  if (data == nullptr || size < kHeaderBytes) {
    return Status::InvalidArgument("GraphSnapshot buffer too short");
  }
  SnapshotHeader header;
  Status s = ParseHeader(data, &header);
  if (!s.ok()) return s;
  // Size check before any allocation: a corrupt node count must fail,
  // not drive a huge reserve.
  if (size != ExpectedBytes(header)) {
    return Status::InvalidArgument(
        "GraphSnapshot buffer size does not match its header");
  }
  SketchArena records = SketchArena::Uninitialized(
      header.params.num_nodes, NodeSketch::SerializedSizeFor(header.params));
  std::memcpy(records.mutable_data(), data + kHeaderBytes,
              records.size_bytes());
  return GraphSnapshot(header.params, std::move(records), header.num_updates);
}

size_t GraphSnapshot::SerializedRangeSizeFor(const NodeSketchParams& params,
                                             uint64_t lo, uint64_t hi) {
  GZ_CHECK_MSG(lo < hi && hi <= params.num_nodes, "bad node range");
  return kRangeHeaderBytes +
         (hi - lo) * NodeSketch::SerializedSizeFor(params);
}

namespace {

void WriteRangeHeader(const NodeSketchParams& params, uint64_t lo,
                      uint64_t hi, uint8_t* out) {
  std::memcpy(out, kRangeMagic, sizeof(kRangeMagic));
  out += sizeof(kRangeMagic);
  const uint64_t num_nodes = params.num_nodes;
  const uint64_t seed = params.seed;
  const int32_t cols = params.cols;
  const int32_t rounds = params.rounds;
  std::memcpy(out, &num_nodes, sizeof(num_nodes));
  out += sizeof(num_nodes);
  std::memcpy(out, &seed, sizeof(seed));
  out += sizeof(seed);
  std::memcpy(out, &cols, sizeof(cols));
  out += sizeof(cols);
  std::memcpy(out, &rounds, sizeof(rounds));
  out += sizeof(rounds);
  std::memcpy(out, &lo, sizeof(lo));
  out += sizeof(lo);
  std::memcpy(out, &hi, sizeof(hi));
}

}  // namespace

Status GraphSnapshot::ParseSerializedNodeRange(
    const uint8_t* data, size_t size, const NodeSketchParams& expect_params,
    uint64_t* lo, uint64_t* hi, size_t* payload_offset) {
  if (data == nullptr || size < kRangeHeaderBytes) {
    return Status::InvalidArgument("node-range delta buffer too short");
  }
  if (std::memcmp(data, kRangeMagic, sizeof(kRangeMagic)) != 0) {
    return Status::InvalidArgument("not a node-range delta: bad magic");
  }
  const uint8_t* in = data + sizeof(kRangeMagic);
  uint64_t num_nodes = 0, seed = 0, range_lo = 0, range_hi = 0;
  int32_t cols = 0, rounds = 0;
  std::memcpy(&num_nodes, in, sizeof(num_nodes));
  in += sizeof(num_nodes);
  std::memcpy(&seed, in, sizeof(seed));
  in += sizeof(seed);
  std::memcpy(&cols, in, sizeof(cols));
  in += sizeof(cols);
  std::memcpy(&rounds, in, sizeof(rounds));
  in += sizeof(rounds);
  std::memcpy(&range_lo, in, sizeof(range_lo));
  in += sizeof(range_lo);
  std::memcpy(&range_hi, in, sizeof(range_hi));
  if (num_nodes != expect_params.num_nodes || seed != expect_params.seed ||
      cols != expect_params.cols || rounds != expect_params.rounds) {
    return Status::InvalidArgument(
        "node-range delta params mismatch: fold requires identical seed, "
        "node bound and sketch geometry");
  }
  if (!(range_lo < range_hi && range_hi <= num_nodes)) {
    return Status::InvalidArgument("node-range delta has a bad range");
  }
  const size_t record = NodeSketch::SerializedSizeFor(expect_params);
  if (size != kRangeHeaderBytes + (range_hi - range_lo) * record) {
    return Status::InvalidArgument(
        "node-range delta size does not match its header");
  }
  *lo = range_lo;
  *hi = range_hi;
  if (payload_offset != nullptr) *payload_offset = kRangeHeaderBytes;
  return Status::Ok();
}

Status GraphSnapshot::SaveRangeToSink(
    const std::function<Status(const void* data, size_t size)>& sink,
    const NodeSketchParams& params, uint64_t lo, uint64_t hi,
    const RecordReader& read) {
  GZ_CHECK_MSG(lo < hi && hi <= params.num_nodes, "bad node range");
  uint8_t header[kRangeHeaderBytes];
  WriteRangeHeader(params, lo, hi, header);
  Status s = sink(header, kRangeHeaderBytes);
  if (!s.ok()) return s;
  size_t written = 0;
  s = read(lo, hi, [&sink, &written](const uint8_t* records, size_t bytes) {
    written += bytes;
    return sink(records, bytes);
  });
  // The frame length was promised from the params alone.
  GZ_CHECK_MSG(!s.ok() || written == (hi - lo) *
                                         NodeSketch::SerializedSizeFor(params),
               "record reader returned the wrong byte count");
  return s;
}

std::vector<uint8_t> GraphSnapshot::ExtractNodeRange(uint64_t lo,
                                                     uint64_t hi) const {
  GZ_CHECK_MSG(valid(), "empty snapshot");
  std::vector<uint8_t> out(SerializedRangeSizeFor(params(), lo, hi));
  WriteRangeHeader(params(), lo, hi, out.data());
  std::memcpy(out.data() + kRangeHeaderBytes, records_.record(lo),
              (hi - lo) * record_bytes());
  return out;
}

Status GraphSnapshot::MergeSerializedNodeRange(const uint8_t* data,
                                               size_t size) {
  if (!valid()) return Status::InvalidArgument("empty snapshot");
  uint64_t lo = 0, hi = 0;
  size_t payload_offset = 0;
  Status s = ParseSerializedNodeRange(data, size, params(), &lo, &hi,
                                      &payload_offset);
  if (!s.ok()) return s;
  // Past this point nothing can fail, so the fold never leaves the
  // snapshot half-merged.
  return MergeNodeRecords(lo, hi, data + payload_offset);
}

Status GraphSnapshot::ReplaceTermRange(GraphSnapshot* term, uint64_t lo,
                                       uint64_t hi, const uint8_t* data,
                                       size_t size) {
  if (!valid() || term == nullptr || term == this || !term->valid()) {
    return Status::InvalidArgument(
        "a term swap needs two distinct, non-empty snapshots");
  }
  if (!(term->params() == params())) {
    return Status::InvalidArgument(
        "term snapshot params do not match this snapshot");
  }
  uint64_t got_lo = 0, got_hi = 0;
  size_t payload_offset = 0;
  Status s = ParseSerializedNodeRange(data, size, params(), &got_lo, &got_hi,
                                      &payload_offset);
  if (!s.ok()) return s;
  if (got_lo != lo || got_hi != hi) {
    return Status::InvalidArgument("node-range delta covers the wrong range");
  }
  // Made writable one after the other: if the two shared an arena, the
  // first clone leaves the second unique, so the ranges never alias.
  const size_t offset = lo * record_bytes();
  uint8_t* sum = MutableRecords() + offset;
  uint8_t* old = term->MutableRecords() + offset;
  SwapXorTerm(sum, old, data + payload_offset, (hi - lo) * record_bytes());
  return Status::Ok();
}

Status GraphSnapshot::SaveToFile(const std::string& path) const {
  GZ_CHECK_MSG(valid(), "empty snapshot");
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create snapshot file: " + path);
  }
  uint8_t header[kHeaderBytes];
  WriteHeader(params(), num_updates_, header);
  const bool ok =
      std::fwrite(header, 1, kHeaderBytes, f) == kHeaderBytes &&
      std::fwrite(records_.data(), 1, records_.size_bytes(), f) ==
          records_.size_bytes();
  // fclose flushes: a failure there is a short write too.
  if (std::fclose(f) != 0 || !ok) {
    return Status::IoError("short write to snapshot file: " + path);
  }
  return Status::Ok();
}

Status GraphSnapshot::SaveRecordsToSink(
    const std::function<Status(const void* data, size_t size)>& sink,
    const NodeSketchParams& params, uint64_t num_updates,
    const RecordReader& read) {
  uint8_t header[kHeaderBytes];
  WriteHeader(params, num_updates, header);
  Status s = sink(header, kHeaderBytes);
  if (!s.ok()) return s;
  const size_t record = NodeSketch::SerializedSizeFor(params);
  uint64_t written = 0;
  s = read(0, params.num_nodes,
           [&sink, &written, record](const uint8_t* records, size_t bytes) {
             GZ_CHECK_MSG(bytes % record == 0,
                          "record reader split a node record");
             // One call per record, whatever the reader's piece size:
             // consumers may count or compare records call by call.
             for (size_t at = 0; at < bytes; at += record) {
               const Status st = sink(records + at, record);
               if (!st.ok()) return st;
             }
             written += bytes / record;
             return Status::Ok();
           });
  GZ_CHECK_MSG(!s.ok() || written == params.num_nodes,
               "record reader returned the wrong record count");
  return s;
}

Status GraphSnapshot::SaveToSink(
    const std::function<Status(const void* data, size_t size)>& sink,
    const NodeSketchParams& params, uint64_t num_updates,
    const std::function<const NodeSketch&(NodeId)>& load) {
  std::vector<uint8_t> buf(NodeSketch::SerializedSizeFor(params));
  return SaveRecordsToSink(
      sink, params, num_updates,
      [&load, &params, &buf](uint64_t lo, uint64_t hi,
                             const RecordSink& records) {
        for (uint64_t i = lo; i < hi; ++i) {
          const NodeSketch& sketch = load(static_cast<NodeId>(i));
          GZ_CHECK_MSG(sketch.params() == params,
                       "loader returned wrong params");
          sketch.SerializeTo(buf.data());
          const Status s = records(buf.data(), buf.size());
          if (!s.ok()) return s;
        }
        return Status::Ok();
      });
}

Status GraphSnapshot::SaveStream(const std::string& path,
                                 const NodeSketchParams& params,
                                 uint64_t num_updates,
                                 const RecordReader& read) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create snapshot file: " + path);
  }
  Status s = SaveRecordsToSink(
      [f, &path](const void* data, size_t size) {
        if (std::fwrite(data, 1, size, f) != size) {
          return Status::IoError("short write to snapshot file: " + path);
        }
        return Status::Ok();
      },
      params, num_updates, read);
  std::fclose(f);
  return s;
}

Result<GraphSnapshot> GraphSnapshot::LoadFromFile(const std::string& path) {
  FILE* f = nullptr;
  SnapshotHeader header;
  Status s = OpenSnapshotFile(path, &f, &header);
  if (!s.ok()) return s;
  SketchArena records = SketchArena::Uninitialized(
      header.params.num_nodes, NodeSketch::SerializedSizeFor(header.params));
  const bool ok = std::fread(records.mutable_data(), 1, records.size_bytes(),
                             f) == records.size_bytes();
  std::fclose(f);
  if (!ok) return Status::IoError("truncated snapshot file: " + path);
  return GraphSnapshot(header.params, std::move(records), header.num_updates);
}

Status GraphSnapshot::LoadStream(
    const std::string& path, const NodeSketchParams& expect_params,
    uint64_t* num_updates,
    const std::function<void(NodeId, const NodeSketch&)>& store,
    size_t offset) {
  FILE* f = nullptr;
  SnapshotHeader header;
  Status s = OpenSnapshotFile(path, &f, &header, offset);
  if (!s.ok()) return s;
  if (!(header.params == expect_params)) {
    std::fclose(f);
    return Status::InvalidArgument(
        "snapshot sketch parameters do not match this instance");
  }
  NodeSketch scratch(header.params);
  std::vector<uint8_t> buf(scratch.SerializedSize());
  for (uint64_t i = 0; i < header.params.num_nodes; ++i) {
    if (std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
      std::fclose(f);
      return Status::IoError("truncated snapshot file: " + path);
    }
    scratch.DeserializeFrom(buf.data());
    store(static_cast<NodeId>(i), scratch);
  }
  std::fclose(f);
  if (num_updates != nullptr) *num_updates = header.num_updates;
  return Status::Ok();
}

}  // namespace gz
