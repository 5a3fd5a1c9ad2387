#include "distributed/sharded_graph_zeppelin.h"

#include "core/connectivity.h"
#include "util/check.h"

namespace gz {
namespace {

// Single updates accumulate up to this many before one frame leaves
// (mirrors GraphZeppelin's API-boundary span).
constexpr size_t kPendingSpanUpdates = 1024;

}  // namespace

ShardedGraphZeppelin::ShardedGraphZeppelin(const GraphZeppelinConfig& base,
                                           int num_shards,
                                           ShardClusterOptions cluster_options)
    : query_threads_(base.query_threads),
      cluster_(base, num_shards, std::move(cluster_options)) {
  pending_.reserve(kPendingSpanUpdates);
}

Status ShardedGraphZeppelin::Init() { return cluster_.Start(); }

void ShardedGraphZeppelin::DrainPending() {
  if (pending_.empty()) return;
  GZ_CHECK_OK(cluster_.Update(pending_.data(), pending_.size()));
  pending_.clear();  // Keeps capacity.
}

void ShardedGraphZeppelin::Update(const GraphUpdate& update) {
  pending_.push_back(update);
  if (pending_.size() >= kPendingSpanUpdates) DrainPending();
}

void ShardedGraphZeppelin::Update(const GraphUpdate* updates, size_t count) {
  DrainPending();  // Preserve stream order with singly fed updates.
  GZ_CHECK_OK(cluster_.Update(updates, count));
}

void ShardedGraphZeppelin::Flush() {
  DrainPending();
  GZ_CHECK_OK(cluster_.Flush());
}

GraphSnapshot ShardedGraphZeppelin::Snapshot() {
  DrainPending();
  Result<GraphSnapshot> r = cluster_.Snapshot();
  GZ_CHECK_MSG(r.ok(), r.status().message().c_str());
  return std::move(r).value();
}

ConnectivityResult ShardedGraphZeppelin::ListSpanningForest() {
  return Connectivity(Snapshot(), query_threads_);
}

Result<HeavyHitterSketch> ShardedGraphZeppelin::HeavyHitters() {
  DrainPending();
  return cluster_.HeavyHitters();
}

Status ShardedGraphZeppelin::CachedSnapshot(const GraphSnapshot** out) {
  DrainPending();
  return cluster_.CachedSnapshot(out);
}

Result<size_t> ShardedGraphZeppelin::EvaluateStandingQueries(
    int threads, const StandingQueryNotifier& notifier) {
  DrainPending();
  return cluster_.EvaluateStandingQueries(threads, notifier);
}

Result<int> ShardedGraphZeppelin::AddShard(const std::string& endpoint) {
  DrainPending();
  return cluster_.AddShard(endpoint);
}

Status ShardedGraphZeppelin::BeginRemoveShard(int shard) {
  DrainPending();
  return cluster_.BeginRemoveShard(shard);
}

Result<int> ShardedGraphZeppelin::BeginSplitShard(
    int shard, const std::string& endpoint) {
  DrainPending();
  return cluster_.BeginSplitShard(shard, endpoint);
}

Status ShardedGraphZeppelin::PumpMigration() {
  DrainPending();
  return cluster_.PumpMigration();
}

Status ShardedGraphZeppelin::RemoveShard(int shard) {
  DrainPending();
  return cluster_.RemoveShard(shard);
}

Result<int> ShardedGraphZeppelin::SplitShard(int shard,
                                             const std::string& endpoint) {
  DrainPending();
  return cluster_.SplitShard(shard, endpoint);
}

uint64_t ShardedGraphZeppelin::updates_in_shard(int shard) {
  DrainPending();
  Result<ShardStats> r = cluster_.Stats(shard);
  GZ_CHECK_MSG(r.ok(), r.status().message().c_str());
  return r.value().num_updates;
}

size_t ShardedGraphZeppelin::RamByteSize() {
  DrainPending();
  size_t total = 0;
  for (const int s : cluster_.ActiveShards()) {
    Result<ShardStats> r = cluster_.Stats(s);
    GZ_CHECK_MSG(r.ok(), r.status().message().c_str());
    total += r.value().ram_bytes;
  }
  return total;
}

}  // namespace gz
