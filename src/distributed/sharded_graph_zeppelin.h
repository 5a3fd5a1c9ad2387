// Sharded ingestion: the distributed extension the paper sketches in
// its conclusion ("sketches can be updated independently ... they can
// be partitioned throughout a distributed cluster without sacrificing
// stream ingestion rate").
//
// Each shard is a complete GraphZeppelin instance sharing the same
// sketch seed; updates are routed through a versioned slot table, and
// because sketches are linear a query XORs the shard snapshots
// node-wise before running Boruvka. Shards can be added, removed or
// split without pausing the stream.
//
// This class is a thin facade over one ShardCluster — the one
// coordinator, which owns routing, migration, durability, the serving
// cache and standing queries (see shard_cluster.h). It adds only
// single-update span batching and GZ_CHECKed conveniences. Where each
// shard runs is named by its endpoint URI in
// ShardClusterOptions::shard_endpoints and by the elastic ops'
// `endpoint` argument (shard_endpoint.h):
//   thread:          a ShardServer thread in this process
//   local:           a forked gz_shard process (the default for "")
//   tcp://host:port  a running `gz_shard --listen`
// Every substrate speaks the same frames to the same coordinator, so
// all of them produce bitwise-identical snapshots.
#ifndef GZ_DISTRIBUTED_SHARDED_GRAPH_ZEPPELIN_H_
#define GZ_DISTRIBUTED_SHARDED_GRAPH_ZEPPELIN_H_

#include <string>
#include <vector>

#include "core/graph_zeppelin.h"
#include "distributed/shard_cluster.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

class ShardedGraphZeppelin {
 public:
  // `base` configures every shard (same num_nodes and sketch seed;
  // backing files get per-shard tags automatically).
  ShardedGraphZeppelin(const GraphZeppelinConfig& base, int num_shards,
                       ShardClusterOptions cluster_options = {});

  // Connects every shard (ShardCluster::Start).
  Status Init();

  // Single updates batch here — one frame per span, not per update —
  // and drain before any other call.
  void Update(const GraphUpdate& update);
  // Bulk ingestion: one UPDATE_BATCH frame per shard.
  void Update(const GraphUpdate* updates, size_t count);

  // Shard an update routes to: a pure function of (edge,
  // routing_table()), shared with any external partitioner.
  int ShardFor(const Edge& e) const { return cluster_.ShardFor(e); }
  const RoutingTable& routing_table() const {
    return cluster_.routing_table();
  }

  // Flushes every shard's buffers and waits for their workers.
  void Flush();
  // The whole graph's snapshot: the XOR fold of the shard snapshots.
  GraphSnapshot Snapshot();
  // Aggregates the shard snapshots and runs Boruvka.
  ConnectivityResult ListSpanningForest();
  // Sum-merged per-shard count-min side sketches (ShardCluster::
  // HeavyHitters).
  Result<HeavyHitterSketch> HeavyHitters();
  // Snapshot() answered from the cluster's SnapshotCache. *out stays
  // valid until the next CachedSnapshot() or mutation.
  Status CachedSnapshot(const GraphSnapshot** out);

  // Standing queries, evaluated by the cluster's registry.
  StandingQueryRegistry& standing_queries() {
    return cluster_.standing_queries();
  }
  Result<size_t> EvaluateStandingQueries(
      int threads, const StandingQueryNotifier& notifier);

  // --- Elastic resharding (see ShardCluster) -------------------------------
  // `endpoint` places the new shard ("" = local:).
  Result<int> AddShard(const std::string& endpoint = std::string());
  Status BeginRemoveShard(int shard);
  Result<int> BeginSplitShard(int shard,
                              const std::string& endpoint = std::string());
  Status PumpMigration();
  bool migration_active() const { return cluster_.migration_active(); }
  int migration_target() const { return cluster_.migration_target(); }
  // Synchronous conveniences: Begin* + pump to completion.
  Status RemoveShard(int shard);
  Result<int> SplitShard(int shard,
                         const std::string& endpoint = std::string());

  // Size of the shard-id space (ids are never reused).
  int num_shards() const { return cluster_.num_shards(); }
  // Ids of shards that currently exist, ascending.
  std::vector<int> ActiveShards() const { return cluster_.ActiveShards(); }
  // Stream position of one shard (a STATS round trip).
  uint64_t updates_in_shard(int shard);
  size_t RamByteSize();

  // The cluster, for lifecycle operations this facade does not wrap
  // (checkpoints, fault injection, restart).
  ShardCluster* cluster() { return &cluster_; }
  // The serving cache behind CachedSnapshot(): range_pulls() not
  // growing across a call proves it was answered from cache.
  const SnapshotCache& snapshot_cache() const {
    return cluster_.snapshot_cache();
  }

 private:
  void DrainPending();

  int query_threads_;
  ShardCluster cluster_;
  // Single updates waiting for a span's worth.
  std::vector<GraphUpdate> pending_;
};

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARDED_GRAPH_ZEPPELIN_H_
