// GraphZeppelin: the paper's streaming connected-components system
// (Section 5). Wires together the buffering system (leaf-only gutters
// or on-disk gutter tree), the work queue, the Graph Worker pool, and
// the sketch store (RAM or SSD), and answers connectivity queries by
// running Boruvka's algorithm over snapshot sketches.
//
// User-facing API mirrors the paper: Update() (edge_update) ingests one
// stream element; Snapshot() flushes buffers and captures the sketch
// state as an immutable GraphSnapshot, the query surface every
// downstream consumer (Connectivity, forest decomposition, sharded
// aggregation, checkpointing) operates on. Queries may be issued
// mid-stream; ingestion can continue afterwards.
#ifndef GZ_CORE_GRAPH_ZEPPELIN_H_
#define GZ_CORE_GRAPH_ZEPPELIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "buffer/guttering_system.h"
#include "buffer/update_batch.h"
#include "buffer/work_queue.h"
#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "core/graph_worker.h"
#include "core/sketch_store.h"
#include "stream/stream_types.h"
#include "util/status.h"
#include "workloads/count_min.h"

namespace gz {

struct GraphZeppelinConfig {
  uint64_t num_nodes = 0;  // Upper bound U on the vertex count.
  uint64_t seed = 42;

  // Sketch geometry. cols = 7 matches delta = 1/100; rounds = 0 picks
  // ceil(log_{3/2} V) automatically.
  int cols = 7;
  int rounds = 0;

  // Ingestion parallelism (Graph Workers).
  int num_workers = 2;

  enum class Buffering { kLeafOnly, kGutterTree };
  Buffering buffering = Buffering::kLeafOnly;

  enum class Storage { kRam, kDisk };
  Storage storage = Storage::kRam;

  // Leaf gutter capacity as a fraction f of the node-sketch size
  // (Figure 15's knob). Applies to both buffering structures.
  double gutter_fraction = 0.5;

  // Nodes per leaf gutter (Section 4.1 node groups; 1 = paper's
  // measured best for in-RAM gutters, larger for block-granular disks).
  uint64_t nodes_per_gutter_group = 1;

  // Directory for the gutter tree and on-disk sketch store files.
  std::string disk_dir = "/tmp";

  // Disambiguates backing-file names when several instances share a
  // seed in one process (e.g. thread: shards of one ShardCluster).
  std::string instance_tag;

  // Gutter tree geometry (paper: 8 MB buffers, fan-out 512; defaults
  // here are scaled to this environment but configurable back up).
  size_t gutter_tree_buffer_bytes = 1 << 22;
  size_t gutter_tree_fanout = 64;

  // Query-time parallelism for Boruvka (0 = auto-size a small pool,
  // 1 = sequential). Results are identical for every value.
  int query_threads = 0;

  // Heavy-hitter side sketch (workloads/count_min.h). 0 disables
  // tracking entirely (no memory, no per-update work). When > 0, every
  // Update() also feeds a turnstile count-min pair (edge
  // multiplicities + degrees) hooked on the flat update span BEFORE
  // the gutters erase the insert/delete sign. Width must be a power of
  // two; the sketch seeds from `seed`, so same-seed shards fold.
  uint32_t heavy_hitter_width = 0;
  uint32_t heavy_hitter_depth = 4;
  uint32_t heavy_hitter_candidates = 8192;
};

class GraphZeppelin {
 public:
  explicit GraphZeppelin(const GraphZeppelinConfig& config);
  ~GraphZeppelin();
  GraphZeppelin(const GraphZeppelin&) = delete;
  GraphZeppelin& operator=(const GraphZeppelin&) = delete;

  // Allocates sketches, buffering and workers. Must be called once
  // before the first Update().
  Status Init();

  // Ingests one stream update ((u, v), ±1). Inserts and deletions are
  // both XOR toggles of the edge's coordinate. Updates are batched at
  // this API boundary: they accumulate in a small span buffer that is
  // handed to the buffering system in bulk, so the gutters see spans
  // rather than single edges.
  void Update(const GraphUpdate& update);

  // Bulk ingestion: the preferred path for stream drivers that already
  // hold a span of updates. Equivalent to calling Update() per element
  // but skips the API-boundary copy and per-update dispatch.
  void Update(const GraphUpdate* updates, size_t count);

  // Forces all buffered updates through the workers and blocks until
  // every sketch is up to date (paper cleanup()). Implied by
  // ListSpanningForest(); exposed so benchmarks can separate ingestion
  // time from query time.
  void Flush();

  // Flushes all buffered updates and computes the connected components
  // from a snapshot (equivalent to Connectivity(Snapshot())). Ingestion
  // may continue afterwards.
  ConnectivityResult ListSpanningForest();

  // Flushes and captures the sketch state as an immutable GraphSnapshot.
  // With the RAM store the capture is O(1): the snapshot shares the
  // store's record arena copy-on-write, and the next mutation (Update,
  // MergeSerializedNodeRange, LoadSnapshot, LoadCheckpoint) clones it
  // first only if the snapshot is still alive. The disk store reads its
  // records into a fresh arena. The snapshot is the system's query
  // surface — every query algorithm, the sharded coordinator's
  // aggregation, and checkpointing consume it; linearity makes
  // snapshots from same-seed instances XOR-mergeable.
  GraphSnapshot Snapshot();

  // The range writers below stream the store's node records through
  // SketchStore::ReadRecords, with no scratch sketch: the RAM store
  // hands out slices of its arena, the disk store reads <= 4 MB runs of
  // records with one pread each. Each flushes first.

  // Streaming form of Snapshot().Serialize(): writes the serialized
  // snapshot through `write` — the header in one call, then exactly one
  // call per node record — so a shard streams its snapshot straight
  // into a socket frame, and even an out-of-core sketch store never
  // materializes the snapshot. The total byte count is
  // GraphSnapshot::SerializedSizeFor(sketch_params()), known before the
  // first call.
  Status WriteSnapshotTo(
      const std::function<Status(const void* data, size_t size)>& write);

  // Coordinator-side fold: XOR-merges this instance's records into
  // `snapshot` as ReadRecords() yields them (no second full snapshot,
  // no scratch sketch). InvalidArgument if the snapshot's params don't
  // match this instance.
  Status MergeSnapshotInto(GraphSnapshot* snapshot);

  // --- Elastic-migration primitives ---------------------------------------
  // Streams the serialized node-range delta [lo, hi) of this instance's
  // current state through `write`: the header, then the records in the
  // pieces ReadRecords() yields (one arena slice on the RAM store) — how
  // a shard answers a MIGRATE_EXTRACT request straight into a socket
  // frame or a reused reply buffer. The range comes off the wire, so a
  // bad one is an InvalidArgument, not a check failure.
  Status WriteNodeRangeTo(
      uint64_t lo, uint64_t hi,
      const std::function<Status(const void* data, size_t size)>& write);

  // XOR-folds a serialized node-range delta into this instance's sketch
  // store (flushes first so the fold lands on a consistent state). The
  // same call installs migrated state on a successor and cancels it on
  // the source — XORing a shard's own extracted bytes back into it
  // zeroes that range, which is how linearity expresses "move" without
  // a destructive (and replay-order-sensitive) clear operation.
  // num_updates_ingested() is never affected: stream positions stay
  // with the shard that ingested the updates.
  Status MergeSerializedNodeRange(const uint8_t* data, size_t size);

  // Overwrites this instance's sketch state with `snapshot` (e.g. one
  // received from a peer or loaded from a file) and adopts its update
  // count. Flushes first, so every update made before the call is
  // overwritten, never applied on top of the load. Params must match;
  // fails with InvalidArgument otherwise.
  Status LoadSnapshot(const GraphSnapshot& snapshot);

  // --- Checkpointing -----------------------------------------------------
  // Thin wrappers over snapshot serialization: SaveCheckpoint is
  // Snapshot().SaveToFile(path) — buffered updates are flushed first,
  // so a restore resumes exactly here; the records stream from
  // ReadRecords() — and LoadCheckpoint is GraphSnapshot::LoadFromFile +
  // LoadSnapshot, flushing first just like it. `offset` skips a
  // caller-owned file prefix (e.g. a shard checkpoint's epoch header)
  // before the snapshot stream.
  Status SaveCheckpoint(const std::string& path);
  Status LoadCheckpoint(const std::string& path, size_t offset = 0);

  // Overwrites the ingested-update count without touching sketch
  // state. Replication repair needs this split: an anti-entropy pass
  // fixes a replica's content with XOR deltas (which carry no counts),
  // then asserts the logical position the repaired content represents.
  void SetUpdatesIngested(uint64_t count) { num_updates_ = count; }

  // ----- Heavy hitters ---------------------------------------------------
  // The side count-min sketch, or nullptr when heavy_hitter_width == 0.
  // Valid after Init(); reading it mid-stream is safe (updates land on
  // the caller's thread at the API boundary, before the gutters).
  const HeavyHitterSketch* heavy_hitters() const { return hh_.get(); }

  // ----- Introspection ---------------------------------------------------
  uint64_t num_updates_ingested() const { return num_updates_; }
  const NodeSketchParams& sketch_params() const;
  // Bytes of one node sketch (drives gutter sizing).
  size_t node_sketch_bytes() const { return node_sketch_bytes_; }
  size_t RamByteSize() const;
  size_t DiskByteSize() const;

  const GraphZeppelinConfig& config() const { return config_; }

 private:
  // Updates buffered at the API boundary before a bulk hand-off to the
  // gutters (GutteringSystem::InsertBatch).
  static constexpr size_t kIngestSpanUpdates = 1024;

  // Hands the API-boundary span buffer to the gutters.
  void DrainIngestSpan();
  // store_->ReadRecords as a RecordReader; callers Flush() first.
  RecordReader StoreReader();

  GraphZeppelinConfig config_;
  size_t node_sketch_bytes_ = 0;
  uint64_t num_updates_ = 0;
  std::string gutter_tree_path_;
  std::string sketch_store_path_;
  std::vector<GraphUpdate> ingest_span_;  // Reserved once in Init().
  std::unique_ptr<HeavyHitterSketch> hh_;  // Null when disabled.

  // Declaration order doubles as reverse destruction order: the worker
  // pool must die before the queue/store it references, and everything
  // holding slabs (gutters, workers) before the batch pool.
  std::unique_ptr<WorkQueue> queue_;
  std::unique_ptr<BatchPool> batch_pool_;
  std::unique_ptr<SketchStore> store_;
  std::unique_ptr<GutteringSystem> gutters_;
  std::unique_ptr<WorkerPool> pool_;
  bool initialized_ = false;
};

}  // namespace gz

#endif  // GZ_CORE_GRAPH_ZEPPELIN_H_
