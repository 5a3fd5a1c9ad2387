// Sharded ingestion: the distributed extension the paper sketches in
// its conclusion ("sketches can be updated independently ... they can
// be partitioned throughout a distributed cluster without sacrificing
// stream ingestion rate").
//
// Each shard is a complete GraphZeppelin instance sharing the same
// sketch seed; stream updates are routed to shards through a versioned
// slot table (see RoutingTable), so no coordination is needed during
// ingestion. Because sketches are linear, the true node sketch is the
// XOR of the per-shard node sketches, and a query merges shard
// snapshots node-wise before running Boruvka — exactly the aggregation
// a distributed deployment does at a coordinator.
//
// Linearity also buys elasticity: shards can be added, removed or
// split WITHOUT pausing the stream. A reshard bumps the routing epoch
// and (for remove/split) moves sketch state in node-range chunks, each
// chunk an XOR install on the target plus an XOR cancel on the source;
// PumpMigration() advances one chunk at a time, so Update() interleaves
// freely. See ShardCluster for the full model.
//
// Two execution modes behind one API:
//   kInProcess — every shard is an in-process instance (the original
//     mode): zero transport cost, useful as the ground truth.
//   kProcess — every shard is a real OS process (gz_shard) fed over a
//     socket by a ShardCluster; queries aggregate serialized
//     GraphSnapshot bytes. The routing table, migration steps and merge
//     algebra are shared, so both modes produce bitwise-identical
//     snapshots through every reshard schedule.
#ifndef GZ_DISTRIBUTED_SHARDED_GRAPH_ZEPPELIN_H_
#define GZ_DISTRIBUTED_SHARDED_GRAPH_ZEPPELIN_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/graph_zeppelin.h"
#include "distributed/shard_cluster.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

class ShardedGraphZeppelin {
 public:
  enum class Mode {
    kInProcess,  // Shards are in-process GraphZeppelin instances.
    kProcess,    // Shards are gz_shard worker processes.
  };

  // `base` configures every shard (same num_nodes and sketch seed;
  // backing files get per-shard tags automatically). `cluster_options`
  // configures the process-mode cluster; in-process mode honors its
  // migrate_nodes_per_chunk so the two modes step migrations
  // identically.
  ShardedGraphZeppelin(const GraphZeppelinConfig& base, int num_shards,
                       Mode mode = Mode::kInProcess,
                       ShardClusterOptions cluster_options = {});

  Status Init();

  // Routes the update to its shard (deterministic by edge + table). In
  // process mode single updates batch at this API boundary — one socket
  // frame per span, not per update — and drain before any barrier.
  void Update(const GraphUpdate& update);

  // Bulk ingestion: partitions the span by shard, then hands each shard
  // its updates through the flat batch pipeline (in-process) or as one
  // UPDATE_BATCH frame per shard (process mode). This is what a stream
  // partitioner in front of real machines would do per network buffer.
  void Update(const GraphUpdate* updates, size_t count);

  // Shard an update would go to; exposed for tests and for external
  // routers (e.g. a stream partitioner in front of real machines).
  // Identical across modes: a pure function of (edge, routing_table()).
  int ShardFor(const Edge& e) const;
  const RoutingTable& routing_table() const;

  // Flushes every shard's buffers and waits for their workers.
  void Flush();

  // Coordinator aggregation: captures one shard's snapshot, then folds
  // every other active shard in node-by-node — in-process via
  // GraphZeppelin::MergeSnapshotInto, in process mode via serialized
  // snapshot frames and GraphSnapshot::MergeSerialized. Linearity makes
  // the result exactly the whole graph's snapshot either way, through
  // any history of reshards.
  GraphSnapshot Snapshot();

  // Aggregates the shard snapshots and runs Boruvka.
  ConnectivityResult ListSpanningForest();

  // Heavy-hitter fold: sum-merges the per-shard count-min side
  // sketches (plus counters captured from removed shards) into exactly
  // the sketch a single-process instance would hold over the same
  // stream — canonical serialization even makes the bytes identical.
  // Same contract in both modes; FailedPrecondition when the base
  // config has heavy_hitter_width == 0.
  Result<HeavyHitterSketch> HeavyHitters();

  // Serving-tier counterpart of Snapshot(): answered from the
  // epoch/watermark-keyed SnapshotCache — O(1) while nothing moved,
  // node-delta pulls from only the moved shards otherwise. Bitwise
  // identical to Snapshot() at the same position, in both modes. *out
  // stays valid until the next CachedSnapshot() or mutation.
  Status CachedSnapshot(const GraphSnapshot** out);

  // Standing queries, same contract in both modes: register specs,
  // then call EvaluateStandingQueries() between updates — one
  // CachedSnapshot() refresh + one fold serves every registered query,
  // firing `notifier` once per changed answer (core/standing_query.h).
  // In-process mode drives its own registry; process mode delegates to
  // the cluster's.
  StandingQueryRegistry& standing_queries();
  Result<size_t> EvaluateStandingQueries(
      int threads, const StandingQueryNotifier& notifier);

  // --- Elastic resharding --------------------------------------------------
  // Same contract in both modes (see ShardCluster). Add returns the new
  // shard's id; BeginSplitShard's new shard id is the returned value.
  // Between Begin* and the last PumpMigration() the stream keeps
  // flowing — Update() never blocks on a migration.
  //
  // `endpoint` places the new shard ("" = local:, "tcp://host:port" =
  // attach a running gz_shard --listen): elastic growth onto another
  // machine is one call. Process mode only — in-process shards have
  // nowhere remote to live, so a non-local endpoint there is a
  // FailedPrecondition.
  Result<int> AddShard(const std::string& endpoint = std::string());
  Status BeginRemoveShard(int shard);
  Result<int> BeginSplitShard(int shard,
                              const std::string& endpoint = std::string());
  Status PumpMigration();
  bool migration_active() const;
  int migration_target() const;
  // Synchronous conveniences: Begin* + pump to completion.
  Status RemoveShard(int shard);
  Result<int> SplitShard(int shard,
                         const std::string& endpoint = std::string());

  Mode mode() const { return mode_; }
  // Size of the shard-id space (ids are never reused).
  int num_shards() const;
  // Ids of shards that currently exist, ascending.
  std::vector<int> ActiveShards() const;
  // Stream position of one shard (an RPC in process mode; drains the
  // pending single-update span first, hence non-const).
  uint64_t updates_in_shard(int shard);
  size_t RamByteSize();

  // The process-mode cluster, for lifecycle operations the thin facade
  // does not wrap (checkpoints, fault injection, restart). Null in
  // in-process mode.
  ShardCluster* cluster() { return cluster_.get(); }

  // The serving cache behind CachedSnapshot() (the cluster's in process
  // mode), exposed for counter observability: range_pulls() not growing
  // across a call proves it was answered from cache.
  const SnapshotCache& snapshot_cache() const {
    return cluster_ != nullptr ? cluster_->snapshot_cache() : cache_;
  }

 private:
  struct InProcessMigration {
    bool remove = false;  // Else: split.
    int source = -1;
    int target = -1;
    uint64_t next_node = 0;
    uint64_t end_node = 0;
  };

  void DrainPending();
  int AllocateInProcessShard();
  // Fills range_buf_ with in-process shard `shard`'s node-range delta
  // [lo, hi) (WriteNodeRangeTo, which flushes first).
  Status ExtractRange(int shard, uint64_t lo, uint64_t hi);

  GraphZeppelinConfig base_;
  Mode mode_;
  ShardClusterOptions cluster_options_;
  bool initialized_ = false;
  // In-process mode state. Index = shard id; nullptr = removed.
  RoutingTable table_;
  std::vector<std::unique_ptr<GraphZeppelin>> shards_;
  // Per-shard routing buffers for the bulk path (capacity persists
  // across calls, so steady-state routing does not allocate).
  std::vector<std::vector<GraphUpdate>> route_bufs_;
  // Per-shard migration-delta counts (mirrors the cluster's
  // delta_seq_sent_): the second watermark component, bumped once per
  // MergeSerializedNodeRange fold a pump step applies.
  std::vector<uint64_t> delta_seq_;
  // Stream positions of removed shards (mirrors the cluster's).
  uint64_t migrated_updates_ = 0;
  // Heavy-hitter counters of removed in-process shards, captured
  // before the instance is destroyed (mirrors the cluster's).
  HeavyHitterSketch retired_hh_;
  // The in-process serving cache behind CachedSnapshot(); process mode
  // uses the cluster's. Same split for the standing-query registry.
  SnapshotCache cache_;
  // In-process range extracts (cache refreshes, migration chunks): one
  // buffer, refilled by WriteNodeRangeTo for every chunk.
  std::vector<uint8_t> range_buf_;
  StandingQueryRegistry standing_queries_;
  std::optional<InProcessMigration> migration_;
  // Process mode state.
  std::unique_ptr<ShardCluster> cluster_;
  // Single updates batched at the API boundary before a bulk hand-off
  // to the cluster (process mode only; in-process shards have their own
  // span buffering).
  std::vector<GraphUpdate> pending_;
};

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARDED_GRAPH_ZEPPELIN_H_
