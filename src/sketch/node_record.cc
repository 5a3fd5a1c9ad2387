#include "sketch/node_record.h"

#include "util/check.h"

namespace gz {

NodeRecordLayout::NodeRecordLayout(const NodeSketchParams& params) {
  // One prototype sketch supplies the resolved params and every seed,
  // so the seed derivation keeps a single definition (NodeSketch /
  // CubeSketch constructors).
  const NodeSketch prototype(params);
  params_ = prototype.params();
  const CubeSketch& first = prototype.subsketch(0);
  rows_ = first.rows();
  vector_len_ = first.params().vector_len;
  round_bytes_ = first.SerializedSize();
  const int cols = params_.cols;
  gamma_seeds_.reserve(static_cast<size_t>(params_.rounds) * (cols + 1));
  for (int r = 0; r < params_.rounds; ++r) {
    const uint64_t* seeds = prototype.subsketch(r).gamma_seeds();
    gamma_seeds_.insert(gamma_seeds_.end(), seeds, seeds + cols + 1);
  }
}

SketchSample NodeRecordLayout::QueryRound(const uint8_t* round_record,
                                          int round) const {
  GZ_CHECK(round >= 0 && round < params_.rounds);
  return CubeSketch::QueryRecord(
      round_record, params_.cols, rows_, vector_len_,
      gamma_seeds_.data() + static_cast<size_t>(round) * (params_.cols + 1));
}

}  // namespace gz
