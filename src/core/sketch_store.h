// Sketch stores: where the V node sketches live during ingestion.
//
// InMemorySketchStore keeps them in RAM. OnDiskSketchStore keeps each
// node's sketch in a fixed-size region of a preallocated file and
// merges batched deltas with read-XOR-write cycles — the hybrid
// streaming model of Section 4, where batching (gutters) amortizes the
// per-update I/O cost.
//
// Both keep each node's sketch as its serialized record
// (sketch/node_record.h), so a merge is a byte XOR and a snapshot is a
// flat copy — or, for the RAM store, no copy at all: Capture() shares
// the store's arena copy-on-write (core/sketch_arena.h).
//
// Thread safety: MergeDelta/Load are safe to call concurrently from
// many Graph Workers; stores lock per node. Following Section 5.1,
// workers accumulate a batch into a private delta sketch and the store
// only holds the lock for the XOR merge. Capture(), ReadRecords() and
// Unshare() are called by the one thread that feeds the workers, while
// they are idle.
#ifndef GZ_CORE_SKETCH_STORE_H_
#define GZ_CORE_SKETCH_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/sketch_arena.h"
#include "sketch/node_record.h"
#include "sketch/node_sketch.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

class SketchStore {
 public:
  virtual ~SketchStore() = default;

  // XOR-merges `delta` (a sketch of a batch of updates) into `node`'s
  // sketch. `delta` must have been built with the store's params.
  virtual void MergeDelta(NodeId node, const NodeSketch& delta) = 0;

  // Copies `node`'s current sketch into `out` (constructed with the
  // store's params). Used by the connectivity query to take a snapshot.
  virtual void Load(NodeId node, NodeSketch* out) = 0;

  // Overwrites `node`'s sketch with `sketch` (params must match).
  // Used by checkpoint restore.
  virtual void Store(NodeId node, const NodeSketch& sketch) = 0;

  // Every node's record in one arena: the snapshot capture. Writers
  // must be idle (GraphZeppelin flushes first). The RAM store shares
  // its own arena in O(1); the disk store reads a fresh one.
  virtual SketchArena Capture() = 0;

  // Streams nodes [lo, hi)'s records through `sink` in node order, a
  // whole number of records per call, with no per-node sketch: the RAM
  // store hands out slices of its arena, the disk store reads with the
  // same <= 4 MB multi-record preads as Capture(). Writers must be idle.
  // Returns the first non-OK sink status.
  virtual Status ReadRecords(uint64_t lo, uint64_t hi,
                             const RecordSink& sink) = 0;

  // Ensures no captured arena shares the bytes the store writes next,
  // cloning them if a capture is still alive. Called before anything
  // can write — in particular before a worker is handed a batch.
  virtual void Unshare() {}

  virtual size_t RamByteSize() const = 0;
  virtual size_t DiskByteSize() const = 0;

  const NodeSketchParams& params() const { return params_; }
  uint64_t num_nodes() const { return params_.num_nodes; }

 protected:
  explicit SketchStore(const NodeSketchParams& params) : params_(params) {}
  NodeSketchParams params_;
};

class InMemorySketchStore : public SketchStore {
 public:
  explicit InMemorySketchStore(const NodeSketchParams& params);

  void MergeDelta(NodeId node, const NodeSketch& delta) override;
  void Load(NodeId node, NodeSketch* out) override;
  void Store(NodeId node, const NodeSketch& sketch) override;
  SketchArena Capture() override { return arena_; }
  Status ReadRecords(uint64_t lo, uint64_t hi,
                     const RecordSink& sink) override;
  void Unshare() override { arena_.MakeUnique(); }
  size_t RamByteSize() const override;
  size_t DiskByteSize() const override { return 0; }

 private:
  SketchArena arena_;
  // One lock per node; 40 B each is negligible next to the sketches.
  std::unique_ptr<std::mutex[]> locks_;
};

class OnDiskSketchStore : public SketchStore {
 public:
  OnDiskSketchStore(const NodeSketchParams& params, std::string path);
  ~OnDiskSketchStore() override;

  // Creates and preallocates the backing file (all-zero regions are
  // valid empty sketches). Must be called before use.
  Status Init();

  void MergeDelta(NodeId node, const NodeSketch& delta) override;
  void Load(NodeId node, NodeSketch* out) override;
  void Store(NodeId node, const NodeSketch& sketch) override;
  SketchArena Capture() override;
  Status ReadRecords(uint64_t lo, uint64_t hi,
                     const RecordSink& sink) override;
  size_t RamByteSize() const override;
  size_t DiskByteSize() const override;

  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  // Reads nodes [lo, hi)'s records into `out` in <= 4 MB preads.
  void ReadRange(uint64_t lo, uint64_t hi, uint8_t* out);
  // Records per ReadRange() pread: 4 MB, rounded down to whole records.
  uint64_t ChunkRecords() const;

  std::string path_;
  int fd_ = -1;
  size_t record_bytes_ = 0;  // Serialized node-sketch size (uniform).
  std::unique_ptr<std::mutex[]> locks_;
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace gz

#endif  // GZ_CORE_SKETCH_STORE_H_
