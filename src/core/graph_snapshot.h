// GraphSnapshot: the first-class, immutable query surface of the
// system — one node sketch per vertex captured at a flush barrier,
// together with the metadata (sketch params, seed, update count) that
// makes the capture self-describing.
//
// Sketch linearity (paper Section 3.1) is what makes this type more
// than a container: snapshots taken from *any* instances built with the
// same seed and geometry can be XOR-merged with Merge(), and the result
// is exactly the snapshot a single instance would have produced for the
// combined stream. That algebra is the sharded coordinator's
// aggregation step, over node-range deltas (the one network format for
// sketch state; a whole graph is the range [0, num_nodes)).
// Checkpointing is snapshot serialization to a file.
//
// Storage is one flat arena of serialized node records
// (sketch/node_record.h), the same bytes Serialize() writes after its
// header. Copies share the arena copy-on-write (core/sketch_arena.h):
// copying a snapshot, or taking one from a RAM-store GraphZeppelin, is
// O(1), and the bytes are cloned only when a holder writes while
// another still reads them. Merges, range deltas, serialization and
// equality are byte XOR, memcpy and memcmp over the arena.
//
// All query algorithms (connectivity, spanning-forest decomposition,
// bipartiteness, MSF weight) consume `const GraphSnapshot&` and read
// the records in place; none of them copies the snapshot.
#ifndef GZ_CORE_GRAPH_SNAPSHOT_H_
#define GZ_CORE_GRAPH_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sketch_arena.h"
#include "sketch/node_record.h"
#include "sketch/node_sketch.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

class GraphSnapshot {
 public:
  // Empty snapshot; valid() is false and every other accessor is
  // off-limits until one is move-assigned in.
  GraphSnapshot() = default;

  // Wraps `records`: one node record per vertex of `params`, captured
  // at stream position `num_updates`. The arena is shared, not copied.
  GraphSnapshot(const NodeSketchParams& params, SketchArena records,
                uint64_t num_updates);

  // The all-zero snapshot (the XOR identity) for `params`; its pages
  // are zero-filled lazily, on first write.
  static GraphSnapshot Zero(const NodeSketchParams& params);

  // Copies share the records until one side writes.
  GraphSnapshot(GraphSnapshot&&) = default;
  GraphSnapshot& operator=(GraphSnapshot&&) = default;
  GraphSnapshot(const GraphSnapshot&) = default;
  GraphSnapshot& operator=(const GraphSnapshot&) = default;

  bool valid() const { return !records_.empty(); }
  const NodeSketchParams& params() const;
  uint64_t num_nodes() const { return valid() ? params_.num_nodes : 0; }
  uint64_t seed() const { return params().seed; }
  int rounds() const { return params().rounds; }
  uint64_t num_updates() const { return num_updates_; }

  // Node `node`'s serialized record, record_bytes() long. Valid until
  // this snapshot is next modified or destroyed.
  const uint8_t* record(NodeId node) const;
  size_t record_bytes() const { return records_.record_bytes(); }
  // Deserializes node `node`'s sketch into *out (built with params()).
  void LoadSketch(NodeId node, NodeSketch* out) const;

  // XOR-merges `other` into this snapshot (node-wise sketch sum, update
  // counts add). Fails with InvalidArgument unless both snapshots were
  // built with identical params — same seed, node bound and geometry —
  // since only then is the merge a sketch of the combined stream.
  Status Merge(const GraphSnapshot& other);

  // Node-granular merge: XORs `delta` (a sketch of some update subset
  // for `node`) into that node's sketch. This is the unit a sharded
  // coordinator uses to fold a shard in while materializing only one
  // scratch sketch at a time; call AddUpdates() once per folded source.
  Status MergeNodeDelta(NodeId node, const NodeSketch& delta);
  // Record form: XORs the hi-lo consecutive node records at `records`
  // into nodes [lo, hi) — how a sketch store's ReadRecords() pieces fold
  // in without a scratch sketch.
  Status MergeNodeRecords(uint64_t lo, uint64_t hi, const uint8_t* records);
  void AddUpdates(uint64_t count) { num_updates_ += count; }
  // Pins the stream position outright — for aggregators (the snapshot
  // cache) that rebuild sketch content from range deltas, which carry
  // no counts, and know the true total from their own bookkeeping.
  void SetUpdates(uint64_t count) { num_updates_ = count; }

  // --- Serialization -----------------------------------------------------
  // Byte layout: 8-byte magic, params (num_nodes, seed, cols, rounds),
  // update count, then num_nodes fixed-size node-sketch records.
  size_t SerializedSize() const;
  // Same, computed from params alone. A producer streaming records into
  // a length-prefixed frame (e.g. a shard replying over a socket) needs
  // the total before the first record exists.
  static size_t SerializedSizeFor(const NodeSketchParams& params);
  std::vector<uint8_t> Serialize() const;
  static Result<GraphSnapshot> Deserialize(const uint8_t* data, size_t size);

  // --- Node-range deltas ---------------------------------------------------
  // A serialized node-range delta is the sketch content of nodes
  // [lo, hi) under its own magic: 8-byte magic, params, the range
  // bounds, then hi-lo fixed-size node records. It is the unit of
  // elastic shard migration — a departing or splitting shard extracts
  // ranges of its state, the coordinator XOR-folds them into the
  // successor (and XOR-folds the same bytes back into the source to
  // cancel them there, which is how linearity expresses "move").
  //
  // Deltas deliberately carry NO update count: stream positions stay
  // with the shard that ingested the updates, and the coordinator
  // accounts for removed shards separately, so folding a delta never
  // perturbs replay reconciliation.
  static size_t SerializedRangeSizeFor(const NodeSketchParams& params,
                                       uint64_t lo, uint64_t hi);
  // Serializes this snapshot's nodes [lo, hi) as a range delta.
  std::vector<uint8_t> ExtractNodeRange(uint64_t lo, uint64_t hi) const;
  // XOR-folds a serialized range delta into this snapshot's records. InvalidArgument on malformed bytes or a params
  // mismatch; this snapshot is unchanged on any error. num_updates() is
  // never affected.
  Status MergeSerializedNodeRange(const uint8_t* data, size_t size);
  // Replaces one XOR term of this snapshot over nodes [lo, hi): `data`
  // is a range delta of the term's new content, and in one pass over
  // the records this ^= term ^ new and term = new (A ^ A ^ B = B) — how
  // the snapshot cache installs a shard's moved content into the merged
  // snapshot without copying the old content out. `term` must be
  // another snapshot with this one's params, and the delta must cover
  // exactly [lo, hi); InvalidArgument otherwise, with neither snapshot
  // changed. num_updates() is never affected.
  Status ReplaceTermRange(GraphSnapshot* term, uint64_t lo, uint64_t hi,
                          const uint8_t* data, size_t size);
  // Streaming producer of the ExtractNodeRange byte stream: the header,
  // then the records of [lo, hi) in the pieces `read` yields — how a
  // shard streams a migration delta into a socket frame without
  // materializing it.
  static Status SaveRangeToSink(
      const std::function<Status(const void* data, size_t size)>& sink,
      const NodeSketchParams& params, uint64_t lo, uint64_t hi,
      const RecordReader& read);
  // Validates a range delta's header against `expect_params` and
  // returns its bounds; the payload must cover exactly hi-lo records.
  // `payload_offset` (optional) receives where the records start, so
  // consumers never re-derive the header size.
  static Status ParseSerializedNodeRange(const uint8_t* data, size_t size,
                                         const NodeSketchParams& expect_params,
                                         uint64_t* lo, uint64_t* hi,
                                         size_t* payload_offset = nullptr);

  // Generalized streaming producer: writes the exact Serialize() byte
  // stream through `sink` — the header in one call, then exactly one
  // call per node record — pulling the records from `read` (a sketch
  // store's ReadRecords(), which needs no scratch sketch). SaveStream is
  // this with a file sink; a shard uses a socket sink to stream a
  // snapshot into its reply frame.
  static Status SaveRecordsToSink(
      const std::function<Status(const void* data, size_t size)>& sink,
      const NodeSketchParams& params, uint64_t num_updates,
      const RecordReader& read);
  // The same byte stream and call pattern, from one node sketch per
  // `load` call (serialized into a one-record buffer).
  static Status SaveToSink(
      const std::function<Status(const void* data, size_t size)>& sink,
      const NodeSketchParams& params, uint64_t num_updates,
      const std::function<const NodeSketch&(NodeId)>& load);

  // File forms, used by checkpointing. LoadFromFile distinguishes a
  // missing file (NotFound), a malformed header (InvalidArgument) and a
  // short body (IoError).
  Status SaveToFile(const std::string& path) const;
  static Result<GraphSnapshot> LoadFromFile(const std::string& path);

  // Streaming file forms: identical file format, but no materialized
  // snapshot, for producers/consumers that cannot afford one (e.g.
  // checkpointing an out-of-core sketch store). SaveStream writes the
  // records `read` yields (SaveRecordsToSink with a file sink);
  // LoadStream validates the header against `expect_params`
  // (InvalidArgument on mismatch), hands each record to `store`, and
  // returns the saved update count. `offset` skips a caller-owned
  // prefix first — how a shard checkpoint embeds a snapshot stream
  // after its own header.
  static Status SaveStream(const std::string& path,
                           const NodeSketchParams& params,
                           uint64_t num_updates, const RecordReader& read);
  static Status LoadStream(
      const std::string& path, const NodeSketchParams& expect_params,
      uint64_t* num_updates,
      const std::function<void(NodeId, const NodeSketch&)>& store,
      size_t offset = 0);

  // Same update count and byte-identical records.
  friend bool operator==(const GraphSnapshot& a, const GraphSnapshot& b);

 private:
  // The records, made writable: cloned first if another holder shares
  // them.
  uint8_t* MutableRecords();

  NodeSketchParams params_;
  SketchArena records_;
  uint64_t num_updates_ = 0;
};

}  // namespace gz

#endif  // GZ_CORE_GRAPH_SNAPSHOT_H_
