// Serialized node-sketch records: the one byte form a node sketch takes
// on disk, on the wire, in checkpoints, and in RAM (the sketch store's
// and GraphSnapshot's record arena). A record is the node's `rounds`
// CubeSketch records back to back; each is
//
//   alphas[cols * rows] (u64), gammas[cols * rows] (u32),
//   det_alpha (u64), det_gamma (u32)
//
// in host byte order and with no alignment guarantee (a round record is
// 12 * (cols * rows + 1) bytes). Linearity carries over to bytes: the
// XOR of two records is the record of the two sketches' sum, so
// merges, migration deltas and Boruvka's component folds all run on
// records directly, and a query samples a record without building a
// sketch object.
#ifndef GZ_SKETCH_NODE_RECORD_H_
#define GZ_SKETCH_NODE_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "sketch/node_sketch.h"
#include "sketch/sketch_sample.h"
#include "util/status.h"

namespace gz {

// dst[i] ^= src[i] for i < bytes. The record XOR behind every merge.
inline void XorBytes(uint8_t* dst, const uint8_t* src, size_t bytes) {
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < bytes; ++i) dst[i] ^= src[i];
}

// sum ^= term ^ fresh, then term = fresh, in one pass: replaces one XOR
// term of a sum (A ^ A ^ B = B) without copying the old term out. The
// three ranges must not overlap.
inline void SwapXorTerm(uint8_t* sum, uint8_t* term, const uint8_t* fresh,
                        size_t bytes) {
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t s, t, f;
    std::memcpy(&s, sum + i, 8);
    std::memcpy(&t, term + i, 8);
    std::memcpy(&f, fresh + i, 8);
    s ^= t ^ f;
    std::memcpy(sum + i, &s, 8);
    std::memcpy(term + i, &f, 8);
  }
  for (; i < bytes; ++i) {
    sum[i] ^= term[i] ^ fresh[i];
    term[i] = fresh[i];
  }
}

// Receives consecutive node records, a whole number of them per call,
// in node order (SketchStore::ReadRecords). The bytes are only valid
// during the call.
using RecordSink = std::function<Status(const uint8_t* records, size_t bytes)>;
// Streams nodes [lo, hi)'s records through a RecordSink; returns the
// first non-OK sink status. SketchStore::ReadRecords is one.
using RecordReader =
    std::function<Status(uint64_t lo, uint64_t hi, const RecordSink& sink)>;

// Geometry and hash seeds of one params' node records: everything a
// reader needs to sample a record's rounds in place.
class NodeRecordLayout {
 public:
  explicit NodeRecordLayout(const NodeSketchParams& params);

  // Rounds per record (params.rounds = 0 resolves to the default).
  int rounds() const { return params_.rounds; }
  size_t record_bytes() const { return round_bytes_ * params_.rounds; }
  size_t round_bytes() const { return round_bytes_; }

  // Start of round `round`'s CubeSketch record inside a node record.
  const uint8_t* Round(const uint8_t* record, int round) const {
    return record + static_cast<size_t>(round) * round_bytes_;
  }

  // Samples a round record (Round(), or the XOR of several nodes'
  // Round()s) exactly as NodeSketch::Query(round) would.
  SketchSample QueryRound(const uint8_t* round_record, int round) const;

 private:
  NodeSketchParams params_;
  int rows_ = 0;
  uint64_t vector_len_ = 0;
  size_t round_bytes_ = 0;
  // (cols + 1) gamma seeds per round, round-major.
  std::vector<uint64_t> gamma_seeds_;
};

}  // namespace gz

#endif  // GZ_SKETCH_NODE_RECORD_H_
