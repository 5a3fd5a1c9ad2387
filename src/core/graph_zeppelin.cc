#include "core/graph_zeppelin.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <vector>

#include <unistd.h>

#include "buffer/gutter_tree.h"
#include "buffer/leaf_gutters.h"
#include "util/check.h"

namespace gz {
namespace {

// Backing-file names combine seed, instance tag and PID so two
// processes sharing one disk_dir cannot clobber each other, plus a
// process-wide counter so two same-seed instances in one process (e.g.
// untagged shards, or a test creating twins) cannot either.
std::string UniquePath(const std::string& dir, const char* stem,
                       uint64_t seed, const std::string& tag) {
  static std::atomic<uint64_t> instance_counter{0};
  std::string path = dir + "/" + stem + "_p" + std::to_string(::getpid()) +
                     "_s" + std::to_string(seed);
  if (!tag.empty()) path += "_" + tag;
  path += "_i" + std::to_string(instance_counter.fetch_add(1));
  return path + ".bin";
}

}  // namespace

GraphZeppelin::GraphZeppelin(const GraphZeppelinConfig& config)
    : config_(config) {
  GZ_CHECK_MSG(config_.num_nodes >= 2, "need at least two nodes");
  GZ_CHECK(config_.num_workers >= 1);
  GZ_CHECK(config_.gutter_fraction > 0.0);
}

GraphZeppelin::~GraphZeppelin() {
  if (pool_ != nullptr) pool_->Stop();
  // Remove backing files; they are per-instance scratch state.
  if (!gutter_tree_path_.empty()) ::unlink(gutter_tree_path_.c_str());
  if (!sketch_store_path_.empty()) ::unlink(sketch_store_path_.c_str());
}

Status GraphZeppelin::Init() {
  if (initialized_) return Status::FailedPrecondition("already initialized");

  NodeSketchParams sp;
  sp.num_nodes = config_.num_nodes;
  sp.seed = config_.seed;
  sp.cols = config_.cols;
  sp.rounds = config_.rounds;

  // Sketch store.
  if (config_.storage == GraphZeppelinConfig::Storage::kRam) {
    store_ = std::make_unique<InMemorySketchStore>(sp);
  } else {
    sketch_store_path_ = UniquePath(config_.disk_dir, "gz_sketches",
                                    config_.seed, config_.instance_tag);
    auto disk_store =
        std::make_unique<OnDiskSketchStore>(sp, sketch_store_path_);
    Status s = disk_store->Init();
    if (!s.ok()) return s;
    store_ = std::move(disk_store);
  }
  {
    NodeSketch prototype(store_->params());
    node_sketch_bytes_ = prototype.ByteSize();
  }

  // Work queue: 8 batches per worker, as in the paper.
  queue_ = std::make_unique<WorkQueue>(
      static_cast<size_t>(8) * config_.num_workers);

  // Buffering system. Gutter capacity = f * sketch_bytes / 8B-per-update.
  const size_t gutter_updates = std::max<size_t>(
      1, static_cast<size_t>(config_.gutter_fraction *
                             static_cast<double>(node_sketch_bytes_)) /
             sizeof(uint64_t));
  // One slab size serves the whole pipeline: every emitted batch fits.
  batch_pool_ = std::make_unique<BatchPool>(
      static_cast<uint32_t>(gutter_updates));
  if (config_.buffering == GraphZeppelinConfig::Buffering::kLeafOnly) {
    LeafGuttersParams lp;
    lp.num_nodes = config_.num_nodes;
    lp.gutter_capacity = gutter_updates;
    lp.nodes_per_group = config_.nodes_per_gutter_group;
    gutters_ = std::make_unique<LeafGutters>(lp, batch_pool_.get(),
                                             queue_.get());
  } else {
    gutter_tree_path_ = UniquePath(config_.disk_dir, "gz_gutter_tree",
                                   config_.seed, config_.instance_tag);
    GutterTreeParams tp;
    tp.num_nodes = config_.num_nodes;
    tp.file_path = gutter_tree_path_;
    tp.buffer_bytes = config_.gutter_tree_buffer_bytes;
    tp.fanout = config_.gutter_tree_fanout;
    tp.leaf_gutter_updates = gutter_updates;
    tp.nodes_per_group = config_.nodes_per_gutter_group;
    auto tree = std::make_unique<GutterTree>(tp, batch_pool_.get(),
                                             queue_.get());
    Status s = tree->Init();
    if (!s.ok()) return s;
    gutters_ = std::move(tree);
  }

  // Heavy-hitter side sketch: hooked at the API boundary, so it sees
  // the signed updates the gutters are about to erase the sign of.
  if (config_.heavy_hitter_width > 0) {
    HeavyHitterParams hp;
    hp.num_nodes = config_.num_nodes;
    hp.seed = config_.seed;
    hp.width = config_.heavy_hitter_width;
    hp.depth = config_.heavy_hitter_depth;
    hp.candidates = config_.heavy_hitter_candidates;
    hh_ = std::make_unique<HeavyHitterSketch>(hp);
  }

  ingest_span_.reserve(kIngestSpanUpdates);
  pool_ = std::make_unique<WorkerPool>(queue_.get(), batch_pool_.get(),
                                       store_.get(), config_.num_workers);
  pool_->Start();
  initialized_ = true;
  return Status::Ok();
}

void GraphZeppelin::DrainIngestSpan() {
  if (ingest_span_.empty()) return;
  // Workers may write once the gutters hold these updates: first clone
  // the store's arena away from any snapshot still sharing it.
  store_->Unshare();
  // Both endpoints' characteristic vectors toggle the same coordinate
  // (paper Figure 8): InsertBatch inserts each edge's index twice.
  gutters_->InsertBatch(ingest_span_.data(), ingest_span_.size());
  ingest_span_.clear();  // Keeps capacity: no realloc on refill.
}

void GraphZeppelin::Update(const GraphUpdate& update) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  // Fail fast at the API boundary: buffering would otherwise defer the
  // violation to an arbitrary later drain. Both halves are checked —
  // GraphUpdate is an aggregate, so a caller can bypass Edge's
  // normalizing constructor.
  GZ_CHECK_MSG(update.edge.u < update.edge.v &&
                   update.edge.v < config_.num_nodes,
               "u < v && v < num_nodes");
  if (hh_ != nullptr) hh_->Update(update);
  ingest_span_.push_back(update);
  ++num_updates_;
  if (ingest_span_.size() >= kIngestSpanUpdates) DrainIngestSpan();
}

void GraphZeppelin::Update(const GraphUpdate* updates, size_t count) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  if (hh_ != nullptr) hh_->Update(updates, count);
  DrainIngestSpan();  // Preserve stream order with singly fed updates.
  store_->Unshare();
  gutters_->InsertBatch(updates, count);
  num_updates_ += count;
}

void GraphZeppelin::Flush() {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  DrainIngestSpan();
  gutters_->ForceFlush();
  pool_->Drain();
}

GraphSnapshot GraphZeppelin::Snapshot() {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  // cleanup(): force updates out of buffers and wait for the workers,
  // so the capture is a consistent stream position. Nothing is
  // buffered from here until the next mutation entry point, which
  // calls Unshare() before any worker can write again.
  Flush();
  return GraphSnapshot(store_->params(), store_->Capture(), num_updates_);
}

RecordReader GraphZeppelin::StoreReader() {
  return [this](uint64_t lo, uint64_t hi, const RecordSink& sink) {
    return store_->ReadRecords(lo, hi, sink);
  };
}

Status GraphZeppelin::WriteSnapshotTo(
    const std::function<Status(const void* data, size_t size)>& write) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  Flush();
  return GraphSnapshot::SaveRecordsToSink(write, store_->params(),
                                          num_updates_, StoreReader());
}

Status GraphZeppelin::MergeSnapshotInto(GraphSnapshot* snapshot) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  GZ_CHECK(snapshot != nullptr);
  if (!snapshot->valid() || !(snapshot->params() == store_->params())) {
    return Status::InvalidArgument(
        "snapshot params do not match this instance");
  }
  Flush();
  const size_t record = NodeSketch::SerializedSizeFor(store_->params());
  uint64_t next = 0;
  Status s = store_->ReadRecords(
      0, config_.num_nodes,
      [snapshot, record, &next](const uint8_t* records, size_t bytes) {
        const uint64_t count = bytes / record;
        const Status st =
            snapshot->MergeNodeRecords(next, next + count, records);
        next += count;
        return st;
      });
  if (!s.ok()) return s;
  snapshot->AddUpdates(num_updates_);
  return Status::Ok();
}

Status GraphZeppelin::WriteNodeRangeTo(
    uint64_t lo, uint64_t hi,
    const std::function<Status(const void* data, size_t size)>& write) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  if (!(lo < hi && hi <= config_.num_nodes)) {
    return Status::InvalidArgument("bad node range");
  }
  Flush();
  return GraphSnapshot::SaveRangeToSink(write, store_->params(), lo, hi,
                                        StoreReader());
}

Status GraphZeppelin::MergeSerializedNodeRange(const uint8_t* data,
                                               size_t size) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  uint64_t lo = 0, hi = 0;
  size_t payload_offset = 0;
  Status s = GraphSnapshot::ParseSerializedNodeRange(
      data, size, store_->params(), &lo, &hi, &payload_offset);
  if (!s.ok()) return s;
  Flush();
  store_->Unshare();
  // Records XOR straight into the store: a migration delta folds in
  // exactly like a worker's batch delta, with no per-node sketch.
  store_->MergeRecords(lo, hi, data + payload_offset);
  return Status::Ok();
}

Status GraphZeppelin::LoadSnapshot(const GraphSnapshot& snapshot) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  if (!snapshot.valid() || !(snapshot.params() == store_->params())) {
    return Status::InvalidArgument(
        "snapshot sketch parameters do not match this instance");
  }
  // Drain first, so no update from before the call can land after the
  // load: the load overwrites every one of them.
  Flush();
  store_->Unshare();
  NodeSketch scratch(store_->params());
  for (NodeId i = 0; i < config_.num_nodes; ++i) {
    snapshot.LoadSketch(i, &scratch);
    store_->Store(i, scratch);
  }
  num_updates_ = snapshot.num_updates();
  return Status::Ok();
}

ConnectivityResult GraphZeppelin::ListSpanningForest() {
  return Connectivity(Snapshot(), config_.query_threads);
}

Status GraphZeppelin::SaveCheckpoint(const std::string& path) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  // Streaming form of Snapshot().SaveToFile(path): same file format
  // (checkpoints ARE snapshots), written straight from the store's
  // records, so a disk-backed store larger than RAM can still
  // checkpoint.
  Flush();
  return GraphSnapshot::SaveStream(path, store_->params(), num_updates_,
                                   StoreReader());
}

Status GraphZeppelin::LoadCheckpoint(const std::string& path,
                                     size_t offset) {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  // Streaming counterpart of LoadFromFile + LoadSnapshot: records go
  // straight into the store without materializing a snapshot. Drained
  // first, like LoadSnapshot: pre-load updates are always overwritten.
  Flush();
  uint64_t saved_updates = 0;
  store_->Unshare();
  Status s = GraphSnapshot::LoadStream(
      path, store_->params(), &saved_updates,
      [this](NodeId i, const NodeSketch& sketch) {
        store_->Store(i, sketch);
      },
      offset);
  if (!s.ok()) return s;
  num_updates_ = saved_updates;
  return Status::Ok();
}

const NodeSketchParams& GraphZeppelin::sketch_params() const {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  return store_->params();
}

size_t GraphZeppelin::RamByteSize() const {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  // The batch pool owns every slab (held by gutters, queued, or free),
  // so gutter RamByteSize covers only the structures the gutters own.
  return store_->RamByteSize() + batch_pool_->RamByteSize() +
         gutters_->RamByteSize();
}

size_t GraphZeppelin::DiskByteSize() const {
  GZ_CHECK_MSG(initialized_, "Init() not called");
  return store_->DiskByteSize() + gutters_->DiskByteSize();
}

}  // namespace gz
