#include "core/sketch_store.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "util/check.h"

namespace gz {
namespace {

// Read/write size of OnDiskSketchStore::Capture(), ReadRecords() and
// MergeRecords(), rounded down to whole records.
constexpr size_t kReadChunkBytes = size_t{4} << 20;

}  // namespace

// ---------------- InMemorySketchStore ---------------------------------

InMemorySketchStore::InMemorySketchStore(const NodeSketchParams& params)
    : SketchStore(params) {
  // Normalize params_ (rounds may have been auto-filled).
  NodeSketch prototype(params_);
  params_ = prototype.params();
  arena_ = SketchArena::Zeroed(params_.num_nodes, prototype.SerializedSize());
  locks_ = std::make_unique<std::mutex[]>(params_.num_nodes);
}

void InMemorySketchStore::MergeDelta(NodeId node, const NodeSketch& delta) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK_MSG(delta.params() == params_,
               "merging node sketches with different parameters");
  GZ_CHECK_MSG(arena_.unique(), "writing a captured arena; Unshare() first");
  std::lock_guard<std::mutex> lock(locks_[node]);
  delta.XorInto(arena_.mutable_record(node));
}

void InMemorySketchStore::Load(NodeId node, NodeSketch* out) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK(out->params() == params_);
  std::lock_guard<std::mutex> lock(locks_[node]);
  out->DeserializeFrom(arena_.record(node));
}

void InMemorySketchStore::Store(NodeId node, const NodeSketch& sketch) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK(sketch.params() == params_);
  GZ_CHECK_MSG(arena_.unique(), "writing a captured arena; Unshare() first");
  std::lock_guard<std::mutex> lock(locks_[node]);
  sketch.SerializeTo(arena_.mutable_record(node));
}

Status InMemorySketchStore::ReadRecords(uint64_t lo, uint64_t hi,
                                       const RecordSink& sink) {
  GZ_CHECK(lo <= hi && hi <= params_.num_nodes);
  if (lo == hi) return Status::Ok();
  return sink(arena_.record(lo), (hi - lo) * arena_.record_bytes());
}

void InMemorySketchStore::MergeRecords(uint64_t lo, uint64_t hi,
                                       const uint8_t* records) {
  GZ_CHECK(lo <= hi && hi <= params_.num_nodes);
  GZ_CHECK_MSG(arena_.unique(), "writing a captured arena; Unshare() first");
  if (lo == hi) return;
  XorBytes(arena_.mutable_record(lo), records,
           (hi - lo) * arena_.record_bytes());
}

size_t InMemorySketchStore::RamByteSize() const {
  return sizeof(*this) + arena_.size_bytes() +
         params_.num_nodes * sizeof(std::mutex);
}

// ---------------- OnDiskSketchStore ------------------------------------

OnDiskSketchStore::OnDiskSketchStore(const NodeSketchParams& params,
                                     std::string path)
    : SketchStore(params), path_(std::move(path)) {
  // Normalize params (auto rounds) by building one prototype sketch.
  NodeSketch prototype(params_);
  params_ = prototype.params();
  record_bytes_ = prototype.SerializedSize();
  locks_ = std::make_unique<std::mutex[]>(params_.num_nodes);
}

OnDiskSketchStore::~OnDiskSketchStore() {
  if (fd_ >= 0) ::close(fd_);
}

Status OnDiskSketchStore::Init() {
  if (fd_ >= 0) return Status::FailedPrecondition("already initialized");
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IoError("cannot create sketch store file: " + path_);
  }
  // All-zero bytes deserialize to empty sketches, so plain ftruncate
  // initializes every node's region.
  const off_t total =
      static_cast<off_t>(record_bytes_ * params_.num_nodes);
  if (::ftruncate(fd_, total) != 0) {
    return Status::IoError("cannot preallocate sketch store file");
  }
  return Status::Ok();
}

void OnDiskSketchStore::MergeDelta(NodeId node, const NodeSketch& delta) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  GZ_CHECK(delta.SerializedSize() == record_bytes_);
  const off_t offset = static_cast<off_t>(record_bytes_) * node;
  std::vector<uint8_t> buf(record_bytes_);
  std::lock_guard<std::mutex> lock(locks_[node]);
  ssize_t got = ::pread(fd_, buf.data(), record_bytes_, offset);
  GZ_CHECK_MSG(got == static_cast<ssize_t>(record_bytes_),
               "sketch store pread");
  bytes_read_ += record_bytes_;
  // Serialization is XOR-linear: the delta folds straight into the
  // record just read.
  delta.XorInto(buf.data());
  ssize_t wrote = ::pwrite(fd_, buf.data(), record_bytes_, offset);
  GZ_CHECK_MSG(wrote == static_cast<ssize_t>(record_bytes_),
               "sketch store pwrite");
  bytes_written_ += record_bytes_;
}

void OnDiskSketchStore::Load(NodeId node, NodeSketch* out) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  GZ_CHECK(out->SerializedSize() == record_bytes_);
  std::vector<uint8_t> buf(record_bytes_);
  const off_t offset = static_cast<off_t>(record_bytes_) * node;
  {
    std::lock_guard<std::mutex> lock(locks_[node]);
    ssize_t got = ::pread(fd_, buf.data(), record_bytes_, offset);
    GZ_CHECK_MSG(got == static_cast<ssize_t>(record_bytes_),
                 "sketch store pread");
  }
  bytes_read_ += record_bytes_;
  out->DeserializeFrom(buf.data());
}

void OnDiskSketchStore::Store(NodeId node, const NodeSketch& sketch) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  GZ_CHECK(sketch.SerializedSize() == record_bytes_);
  std::vector<uint8_t> buf(record_bytes_);
  sketch.SerializeTo(buf.data());
  const off_t offset = static_cast<off_t>(record_bytes_) * node;
  std::lock_guard<std::mutex> lock(locks_[node]);
  ssize_t wrote = ::pwrite(fd_, buf.data(), record_bytes_, offset);
  GZ_CHECK_MSG(wrote == static_cast<ssize_t>(record_bytes_),
               "sketch store pwrite");
  bytes_written_ += record_bytes_;
}

uint64_t OnDiskSketchStore::ChunkRecords() const {
  return std::max<uint64_t>(1, kReadChunkBytes / record_bytes_);
}

void OnDiskSketchStore::ReadRange(uint64_t lo, uint64_t hi, uint8_t* out) {
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  // The file holds the records in node order, so a range is one
  // contiguous read, issued in bounded chunks.
  const size_t total = (hi - lo) * record_bytes_;
  const size_t chunk = ChunkRecords() * record_bytes_;
  const off_t base = static_cast<off_t>(lo * record_bytes_);
  for (size_t done = 0; done < total;) {
    const size_t want = std::min(chunk, total - done);
    const ssize_t got =
        ::pread(fd_, out + done, want, base + static_cast<off_t>(done));
    GZ_CHECK_MSG(got > 0, "sketch store pread");
    done += static_cast<size_t>(got);
  }
  bytes_read_ += total;
}

void OnDiskSketchStore::WriteRange(uint64_t lo, uint64_t hi,
                                   const uint8_t* in) {
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  const size_t total = (hi - lo) * record_bytes_;
  const size_t chunk = ChunkRecords() * record_bytes_;
  const off_t base = static_cast<off_t>(lo * record_bytes_);
  for (size_t done = 0; done < total;) {
    const size_t want = std::min(chunk, total - done);
    const ssize_t wrote =
        ::pwrite(fd_, in + done, want, base + static_cast<off_t>(done));
    GZ_CHECK_MSG(wrote > 0, "sketch store pwrite");
    done += static_cast<size_t>(wrote);
  }
  bytes_written_ += total;
}

SketchArena OnDiskSketchStore::Capture() {
  SketchArena arena =
      SketchArena::Uninitialized(params_.num_nodes, record_bytes_);
  ReadRange(0, params_.num_nodes, arena.mutable_data());
  return arena;
}

Status OnDiskSketchStore::ReadRecords(uint64_t lo, uint64_t hi,
                                      const RecordSink& sink) {
  GZ_CHECK(lo <= hi && hi <= params_.num_nodes);
  const uint64_t step = ChunkRecords();
  std::vector<uint8_t> buf(std::min(hi - lo, step) * record_bytes_);
  for (uint64_t first = lo; first < hi; first += step) {
    const uint64_t last = std::min(hi, first + step);
    ReadRange(first, last, buf.data());
    const Status s = sink(buf.data(), (last - first) * record_bytes_);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void OnDiskSketchStore::MergeRecords(uint64_t lo, uint64_t hi,
                                     const uint8_t* records) {
  GZ_CHECK(lo <= hi && hi <= params_.num_nodes);
  const uint64_t step = ChunkRecords();
  std::vector<uint8_t> buf(std::min(hi - lo, step) * record_bytes_);
  for (uint64_t first = lo; first < hi; first += step) {
    const uint64_t last = std::min(hi, first + step);
    const size_t bytes = (last - first) * record_bytes_;
    ReadRange(first, last, buf.data());
    XorBytes(buf.data(), records + (first - lo) * record_bytes_, bytes);
    WriteRange(first, last, buf.data());
  }
}

size_t OnDiskSketchStore::RamByteSize() const {
  // Only metadata lives in RAM; sketches are on disk.
  return sizeof(*this) + params_.num_nodes * sizeof(std::mutex);
}

size_t OnDiskSketchStore::DiskByteSize() const {
  return record_bytes_ * params_.num_nodes;
}

}  // namespace gz
