// ShardCluster: the sharded coordinator — the only one. Owns N shards
// (one GraphZeppelin each, same seed/geometry) behind ShardTransports:
// a ShardServer thread (thread:), a forked gz_shard (local:) or a
// listener on another machine (tcp://), named per replica by endpoint
// URI and driven through the same frames either way. Routes update
// spans to them through a versioned slot table, aggregates query-time
// snapshot replies with the GraphSnapshot merge algebra, and manages
// shard lifecycle: spawn, health checks, checkpoints, orderly shutdown,
// restart-from-checkpoint of a crashed shard — and elastic resharding:
// shards can be added, removed or split WITHOUT pausing the stream.
//
// Durability model: the coordinator retains every update sent to a
// shard since that shard's last acknowledged checkpoint (its "unacked"
// log), plus every migration delta sent since then (its "pending
// delta" log, with a per-shard sequence number the shard persists in
// its checkpoint header). A shard that dies mid-stream is restarted
// from its checkpoint and both logs are replayed — sketch linearity
// makes replay order irrelevant and the rebuilt state bitwise-identical
// to a run that never crashed. Updates routed to a down shard buffer in
// the same log, so ingestion never stalls on a failure; only
// Flush/Snapshot/Checkpoint require every shard healthy.
//
// Replication model: with replication_factor R > 1 every shard id is
// backed by R replica processes. Each routed slab fans out to every
// replica (each with its own unacked/pending-delta log), so all live
// replicas of a shard are bitwise-identical at all times; folds
// (Snapshot, the serving cache) read any ONE live replica per shard
// and fail over past dead ones. The repair path is anti-entropy, not
// replay: Reconcile() pulls node-range chunks from a position-verified
// reference replica and from the suspect, XOR-diffs them, and folds
// exactly the difference into whichever copy is behind. Because the
// diff is linear it commutes with concurrent ingestion and with an
// in-flight migration — a killed replica rejoins by reconnect +
// reconcile with zero stream pause, no checkpoint restore, no replay.
// R = 1 is bitwise-identical to the pre-replication cluster.
//
// Elasticity model: routing is a pure function of (edge, table); see
// RoutingTable. A reshard bumps the table's epoch, broadcasts it, and
// then — for RemoveShard/SplitShard — migrates sketch state in
// node-range chunks: each chunk is extracted from the source (read-only
// RPC), XOR-folded into the target, and XOR-folded BACK into the source
// to cancel it there. Because every step is a linear XOR, a chunk
// "move" commutes with concurrent ingestion and with crash-replay;
// there is no flush barrier, no destructive clear, and the global
// folded snapshot is exact at every chunk boundary. Migration advances
// one chunk per PumpMigration() call, so the caller interleaves
// Update() freely — zero stream pause.
#ifndef GZ_DISTRIBUTED_SHARD_CLUSTER_H_
#define GZ_DISTRIBUTED_SHARD_CLUSTER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_snapshot.h"
#include "core/graph_zeppelin.h"
#include "core/snapshot_cache.h"
#include "core/standing_query.h"
#include "distributed/shard_endpoint.h"
#include "distributed/shard_process.h"
#include "distributed/shard_protocol.h"
#include "distributed/shard_transport.h"
#include "util/status.h"

namespace gz {

struct ShardClusterOptions {
  // Path of the gz_shard binary; empty = DefaultShardBinary().
  std::string shard_binary;
  // Where each replica lives: "local:" (fork/exec, the default),
  // "thread:" (a ShardServer thread in this process) or
  // "tcp://host:port" (a running `gz_shard --listen`). Shard-major with
  // replication_factor consecutive entries per shard id —
  // [s0r0, s0r1, s1r0, s1r1, ...]; shorter than num_shards *
  // replication_factor = the rest are local. See shard_endpoint.h for
  // the grammar; a malformed entry fails Start().
  std::vector<std::string> shard_endpoints;
  // Shared handshake secret, proven by every connection in both
  // directions (HMAC challenge–response; see shard_protocol.h). Local
  // children receive it through their environment; tcp listeners must
  // have been started with the same secret. "" = open (trusted
  // transport).
  std::string auth_secret;
  // Where shard checkpoints live; empty = the base config's disk_dir.
  std::string checkpoint_dir;
  // Where shard stderr logs go; empty = $GZ_SHARD_LOG_DIR, falling back
  // to the base config's disk_dir. CI points this at an artifact dir.
  std::string log_dir;
  // Replicas per shard id, 1..RoutingTable::kMaxReplication. Every
  // routed slab fans out to all replicas; queries fold from any live
  // one. 1 (the default) = no replication, bitwise-identical to the
  // pre-replication cluster.
  int replication_factor = 1;
  // Auto-checkpoint cadence: after this many routed updates the next
  // Update() call checkpoints every shard (best-effort), truncating the
  // unacked logs so coordinator memory stays bounded by the interval
  // instead of growing with the stream. 0 = manual Checkpoint() only.
  uint64_t checkpoint_interval_updates = 1 << 22;
  // Anti-entropy cadence: after this many routed updates the next
  // Update() call runs Reconcile() (best-effort), re-converging any
  // replica that died or diverged. 0 = manual Reconcile() only.
  uint64_t reconcile_interval_updates = 0;
  // Node-range granularity of one PumpMigration() step and of one
  // Reconcile() diff chunk. Smaller chunks mean more interleaving
  // opportunities for Update() (and finer kill points in fault tests)
  // at more RPCs.
  uint64_t migrate_nodes_per_chunk = 1 << 16;
};

struct ShardStats {
  uint64_t num_updates = 0;
  uint64_t ram_bytes = 0;
  // The routing epoch the shard is at and its migration-delta count —
  // together with num_updates, the shard's serving watermark (see
  // snapshot_cache.h): equal watermarks at equal epochs imply
  // bitwise-equal sketch content.
  uint64_t epoch = 0;
  uint64_t delta_seq = 0;
};

class ShardCluster {
 public:
  // `base` configures every shard (same num_nodes and sketch seed;
  // per-shard instance tags are added automatically).
  ShardCluster(const GraphZeppelinConfig& base, int num_shards,
               ShardClusterOptions options = {});
  // Best-effort orderly shutdown, then removes shard checkpoints.
  ~ShardCluster();
  ShardCluster(const ShardCluster&) = delete;
  ShardCluster& operator=(const ShardCluster&) = delete;

  // Connects and configures every shard (all replicas).
  Status Start();

  // Shard an update routes to under the current table; identical to
  // any external partitioner holding the same table.
  int ShardFor(const Edge& e) const {
    return RouteToShard(e, base_.num_nodes, table_);
  }
  const RoutingTable& routing_table() const { return table_; }

  // Routes the span: each shard's slice is appended to every replica's
  // unacked log, then framed (scatter-gather, no copy, stamped with the
  // routing epoch) onto each live replica's socket. A replica that
  // fails mid-send is fenced and its updates stay buffered; the call
  // still returns Ok because no update was lost. Reconcile() (or
  // RestartShard()) drains the backlog.
  Status Update(const GraphUpdate* updates, size_t count);
  Status Update(const GraphUpdate& update) { return Update(&update, 1); }

  // Barriers (every replica of every shard must be healthy).
  Status Flush();
  // Aggregated query surface: one range read of [0, num_nodes) per
  // shard, from one live replica each, XOR-folded into a zero snapshot
  // (one snapshot plus one reply buffer in flight); the update count is
  // the Watermarks() total. Exact even mid-migration: chunk moves are
  // install+cancel pairs, so the global XOR never double-counts.
  // Survives dead replicas as long as every shard keeps one live one.
  Result<GraphSnapshot> Snapshot();
  // Aggregated heavy-hitter surface: folds one live replica per
  // shard's serialized HeavyHitterSketch (sum-merge — the CM grids are
  // linear and routing partitions edges disjointly) plus the counters
  // captured from retired shards, yielding exactly — bitwise, thanks
  // to canonical serialization — the single-process sketch over the
  // whole stream. FailedPrecondition when the cluster was configured
  // with heavy_hitter_width == 0. Two documented gaps: CM counters are
  // not part of checkpoints (a restore+replay repair recovers only the
  // unacked tail's counts) and are not repaired by anti-entropy
  // (Reconcile moves XOR sketch content, not additive counters).
  Result<HeavyHitterSketch> HeavyHitters();
  // Checkpoints every replica of every shard. Each replica's unacked
  // log and pending-delta log are truncated as its ack arrives —
  // commits are per-replica, so a failure on one leaves the others'
  // coordinator state consistent with their disk checkpoints (a
  // replica whose checkpoint landed but whose ack was lost is
  // reconciled at restart; see RestartShard).
  Status Checkpoint();

  // --- Replication ---------------------------------------------------------
  // Anti-entropy pass. Per shard: picks a reference replica whose
  // reported position matches the coordinator's books exactly, then for
  // every other replica pulls node-range chunks from both sides and
  // XOR-diffs them; a chunk that differs is folded — as exactly the
  // difference — into the suspect. A fenced replica is respawned EMPTY
  // first and repaired from zero: rejoin is reconnect + reconcile, not
  // checkpoint-restore + replay. Repair deltas are deliberately NOT
  // logged: a completed repair is anchored by a position sync plus the
  // replica's own checkpoint, and a crash mid-repair leaves the replica
  // fenced with its classic restore+replay lineage untouched — either
  // path converges. Linear diffs commute with concurrent ingestion and
  // with an in-flight migration, so the stream never pauses.
  // `repaired_chunks` (optional) counts chunks whose content differed.
  Status Reconcile(uint64_t* repaired_chunks = nullptr);
  // Replica count per shard (ShardClusterOptions::replication_factor).
  int replication() const { return replication_; }
  // Hard-stop ONE replica (KillShard kills all of them). With
  // observed=false the coordinator does NOT fence it — a spontaneous
  // crash it has not detected yet.
  void KillReplica(int shard, int replica, bool observed = true);
  bool replica_down(int shard, int replica) const {
    return down_[shard][replica];
  }
  // Test hook: folds `delta_bytes` (a serialized node-range delta) into
  // one replica as an UNLOGGED kMergeDelta — silent divergence, exactly
  // the corruption Reconcile() exists to detect and repair.
  Status CorruptReplicaForTest(int shard, int replica,
                               const std::vector<uint8_t>& delta_bytes);

  // --- Elastic resharding --------------------------------------------------
  // Adds a fresh shard (new highest id) at `endpoint` ("" = all
  // replicas local; with replication a comma-separated list places each
  // replica — this is how a cluster grows onto other machines):
  // connects it, rebalances slots to it, bumps + broadcasts the epoch.
  // No state migrates — the new shard starts empty and linearity makes
  // that exact. Returns the new id.
  Result<int> AddShard(const std::string& endpoint = std::string());
  // Starts removing `shard`: its slots are dealt to the remaining
  // shards (epoch bump, broadcast), then PumpMigration() drains its
  // state chunk-by-chunk into a successor and finally shuts it down.
  Status BeginRemoveShard(int shard);
  // Starts splitting `shard`: a fresh shard (new highest id, at
  // `endpoint` like AddShard) takes half its slots (epoch bump,
  // broadcast), then PumpMigration() moves the upper half of the node
  // range of its accumulated state across. Returns the new shard's id.
  Result<int> BeginSplitShard(int shard,
                              const std::string& endpoint = std::string());
  // Advances the active migration by one step (one node-range chunk,
  // or the final shutdown/bookkeeping step). Interleave with Update()
  // at will. On a shard failure the step's effects are already in the
  // durability logs: RestartShard() the fenced shard, then keep
  // pumping — the migration converges to the same bytes.
  Status PumpMigration();
  bool migration_active() const { return migration_.has_value(); }
  int migration_source() const;
  int migration_target() const;
  // Synchronous conveniences: Begin* + pump to completion.
  Status RemoveShard(int shard);
  Result<int> SplitShard(int shard,
                         const std::string& endpoint = std::string());

  // Lifecycle.
  // Liveness per shard id: every replica's transport alive and
  // answering pings (removed ids report false).
  std::vector<bool> HealthCheck();
  // Hard-stop for fault injection / fencing — server shutdown + join
  // for a thread shard, SIGKILL for a local one, connection abort for
  // a tcp one (the listener drops its instance): the same state loss
  // each time; updates keep buffering. Kills
  // every replica of the shard. With observed=false the coordinator
  // does NOT fence the shard — modeling a spontaneous crash it has not
  // detected yet, so tests can drive the paths that must self-fence on
  // a failed send.
  void KillShard(int shard, bool observed = true);
  // Respawn one replica, restore its last checkpoint (if any), replay
  // its unacked updates and its pending migration deltas (the
  // checkpoint's stream position and delta sequence number say exactly
  // which are already covered). Afterwards the replica is exactly
  // where it would be had it never died. This is the classic
  // restore+replay repair; Reconcile() is the anti-entropy alternative.
  Status RestartReplica(int shard, int replica);
  // RestartReplica over every replica of `shard`.
  Status RestartShard(int shard);
  // Orderly shutdown of every live shard (kShutdown + reap).
  Status Shutdown();

  Result<ShardStats> Stats(int shard);

  // --- Serving tier ----------------------------------------------------------
  // Like Snapshot(), but answered from the epoch/watermark-keyed
  // SnapshotCache: O(1) — zero RPCs — while the cluster position is
  // unchanged since the last call, and node-delta pulls from ONLY the
  // shards whose watermark moved otherwise (a reshard refreshes by
  // pulling the moved shards, never a full re-fold). Bitwise identical
  // to Snapshot() at the same (epoch, watermarks) position — enforced
  // by tests. *out stays valid until the next CachedSnapshot() call or
  // cluster mutation. Watermarks come from the coordinator's own
  // durability bookkeeping, so no barrier runs: a query can even be
  // served at the last position while a shard is down, as long as
  // nothing moved; a refresh pulls from any live replica and fails only
  // when a shard has none.
  Status CachedSnapshot(const GraphSnapshot** out);
  // The cluster's current serving position: per-shard watermarks from
  // the durability logs (checkpointed + unacked updates, deltas sent).
  ShardWatermarks Watermarks() const;
  const SnapshotCache& snapshot_cache() const { return cache_; }

  // Standing queries, coordinator-driven: register specs here, then
  // call EvaluateStandingQueries() wherever the stream pauses (between
  // batches, after a reshard step). One CachedSnapshot() refresh + one
  // fold serves every registered query; `notifier` fires once per
  // changed answer (see core/standing_query.h for the contract).
  // Returns the number of notifications fired. Single-driver, like
  // every other coordinator call.
  StandingQueryRegistry& standing_queries() { return standing_queries_; }
  Result<size_t> EvaluateStandingQueries(
      int threads, const StandingQueryNotifier& notifier);

  // Size of the shard-id space (ids are never reused; removed ids stay
  // allocated). Equals the active count until the first RemoveShard.
  int num_shards() const { return static_cast<int>(procs_.size()); }
  // Ids of shards that currently exist, ascending.
  std::vector<int> ActiveShards() const;
  int num_active_shards() const;
  bool shard_removed(int shard) const { return procs_[shard].empty(); }
  // A shard counts as down when ANY of its replicas is fenced (the
  // all-replica barriers refuse it).
  bool shard_down(int shard) const {
    for (const bool d : down_[shard]) {
      if (d) return true;
    }
    return false;
  }
  uint64_t unacked_updates(int shard) const {
    return unacked_[shard][0].size();
  }
  uint64_t pending_delta_count(int shard) const {
    return pending_deltas_[shard][0].size();
  }

 private:
  struct PendingDelta {
    uint64_t seq = 0;  // 1-based per-replica kMergeDelta sequence number.
    std::vector<uint8_t> bytes;
  };
  struct Migration {
    enum class Kind { kRemove, kSplit };
    Kind kind = Kind::kRemove;
    int source = -1;
    int target = -1;
    uint64_t next_node = 0;  // First node of the next chunk.
    uint64_t end_node = 0;   // One past the last node to migrate.
  };
  // Which replicas a barrier touches: every replica of every shard
  // (mutations: flush, checkpoint, epoch) or one live replica per
  // shard (read-only folds: snapshot, heavy hitters).
  enum class BarrierScope { kAllReplicas, kOnePerShard };

  // Connects + configures one replica; `restored` /
  // `restored_delta_seq` receive its stream position and delta
  // sequence number after any checkpoint restore.
  Status SpawnAndConfigure(int shard, int replica, bool restore,
                           uint64_t* restored, uint64_t* restored_delta_seq);
  std::string CheckpointPath(int shard, int replica) const;
  // The shards' sketch geometry (rounds resolved from the default).
  NodeSketchParams SketchParams() const;
  // The cluster's stream position: the watermarks' update counts plus
  // the positions of removed shards.
  uint64_t TotalUpdates(const ShardWatermarks& marks) const;
  std::string LogPath(int shard, int replica) const;
  GraphZeppelinConfig ShardConfigFor(int shard, int replica) const;
  // Transport for one replica from endpoints_[shard][replica]
  // (thread -> server thread, local -> fork/exec, tcp -> connect).
  std::unique_ptr<ShardTransport> MakeTransportFor(int shard,
                                                   int replica) const;
  // "" = all local; otherwise a comma-separated endpoint list, at most
  // one entry per replica (missing entries are local).
  Result<std::vector<ShardEndpoint>> ParseReplicaEndpoints(
      const std::string& endpoint) const;
  // Grows every per-shard vector for a freshly allocated id, recording
  // its replicas' endpoints.
  int AllocateShardSlot(std::vector<ShardEndpoint> endpoints);
  // Rolls a just-allocated (still-last) id back out after a failed
  // spawn, keeping the id space dense.
  void ReleaseLastShardSlot(int id);
  // Lowest-index replica of `shard` the coordinator has not fenced
  // (-1 if none). What the send paths target.
  int FirstUnfencedReplica(int shard) const;
  // Lowest-index replica that is unfenced AND whose transport is still
  // alive (-1 if none). What the fold paths target.
  int FirstLiveReplica(int shard);
  // Sends the current table to every replica (kEpoch barrier).
  Status BroadcastTable();
  // kMergeDelta RPC to one replica; fences it on failure (transport
  // loss or a diverged shard — either way repair re-delivers).
  Status SendDelta(int shard, int replica, const std::vector<uint8_t>& bytes);
  // Sends one epoch-stamped update frame chain for `buf[off..)`.
  Status SendUpdateFrames(int shard, int replica, const GraphUpdate* updates,
                          size_t count);
  // The one pipelined-barrier implementation every cluster-wide
  // operation shares: sends `type` (payload from `payload_for`, if
  // given) to every targeted replica, then collects a reply from EVERY
  // replica that got a request — even after a failure, so no reply is
  // ever left queued to desync a later barrier. A replica is fenced
  // (down_) only when its connection lost sync, not on an
  // application-level kError. `on_reply` (optional) runs per
  // well-formed `expected_reply` frame; its error fails the barrier
  // without fencing. Returns the first error encountered.
  Status PipelinedBarrier(
      ShardMessageType type, ShardMessageType expected_reply,
      const std::function<std::string(int shard, int replica)>& payload_for,
      const std::function<Status(int shard, int replica,
                                 const ShardFrame& reply)>& on_reply,
      BarrierScope scope = BarrierScope::kAllReplicas);
  Status RequireAllHealthy();
  // One STATS_EX round trip to one replica; fences it on failure.
  Status ReplicaStatsEx(int shard, int replica, ShardStatsEx* ex);
  // kMigrateExtract -> kMigrateData pull of [lo, hi) from one replica
  // into reply_buf_ (valid until the next receive); fences it on
  // failure. Read-only on the shard.
  Status ExtractRange(int shard, int replica, uint64_t lo, uint64_t hi);
  // Per-replica kCheckpoint RPC, committing the coordinator's books for
  // that replica exactly as the cluster-wide Checkpoint() barrier does.
  Status CheckpointReplica(int shard, int replica);
  // Reconcile's inner loop: repair `replica` against `reference`.
  // `diff` is a scratch buffer reused across chunks and calls.
  Status RepairReplica(int shard, int replica, int reference,
                       uint64_t expected_updates, std::vector<uint8_t>* diff,
                       uint64_t* repaired_chunks);

  GraphZeppelinConfig base_;
  ShardClusterOptions options_;
  // Distinct per cluster in this process; part of checkpoint names.
  uint64_t serial_ = 0;
  std::string binary_;
  std::string log_dir_;
  int replication_ = 1;
  // A malformed options_.shard_endpoints entry (or replication factor),
  // reported by Start() (the constructor cannot return a Status).
  Status endpoint_error_;
  bool started_ = false;

  RoutingTable table_;
  // Outer index = shard id (empty marks a removed id — never reused);
  // inner index = replica.
  std::vector<std::vector<std::unique_ptr<ShardTransport>>> procs_;
  // Where each replica lives (kept for removed ids too; the id space
  // never shrinks).
  std::vector<std::vector<ShardEndpoint>> endpoints_;
  std::vector<std::vector<bool>> down_;
  // Per-shard routing buffers (capacity persists across spans); one per
  // shard, not per replica — the fan-out happens at send time.
  std::vector<std::vector<GraphUpdate>> route_bufs_;
  // Per-replica updates sent since that replica's last acked
  // checkpoint. All replicas of a shard carry the same SUM of
  // checkpointed + unacked updates; the split point is per-replica.
  std::vector<std::vector<std::vector<GraphUpdate>>> unacked_;
  // Per-replica migration deltas sent since the last acked checkpoint,
  // with the sequence numbers the shard's checkpoint header reconciles
  // against on restart.
  std::vector<std::vector<std::vector<PendingDelta>>> pending_deltas_;
  std::vector<std::vector<uint64_t>> delta_seq_sent_;  // Total ever sent.
  std::vector<std::vector<uint64_t>> checkpoint_delta_seq_;  // At last ack.
  std::vector<std::vector<bool>> has_checkpoint_;
  // Stream position of each replica's last ACKED checkpoint; the
  // on-disk file may be newer if an ack was lost to a crash.
  std::vector<std::vector<uint64_t>> checkpoint_updates_;
  // Stream positions of removed shards: their ingested counts fold into
  // every TotalUpdates() so the aggregate update count survives removal.
  uint64_t migrated_updates_ = 0;
  // Heavy-hitter counters of removed shards, captured before their
  // processes retire (migration deltas carry XOR sketch content only,
  // never additive CM counters) and folded into every HeavyHitters()
  // answer. Invalid until the first removal of a tracking shard.
  HeavyHitterSketch retired_hh_;
  std::optional<Migration> migration_;
  uint64_t updates_since_checkpoint_ = 0;  // Drives auto-checkpointing.
  uint64_t updates_since_reconcile_ = 0;   // Drives periodic anti-entropy.
  // The one receive buffer for replies — barriers, snapshots, migration
  // and repair pulls, cache refreshes; never moved out, so its capacity
  // carries over.
  ShardFrame reply_buf_;
  // The serving tier's merged-snapshot cache (see CachedSnapshot()).
  SnapshotCache cache_;
  StandingQueryRegistry standing_queries_;
};

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_CLUSTER_H_
