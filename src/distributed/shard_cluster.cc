#include "distributed/shard_cluster.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include <sys/stat.h>
#include <unistd.h>

#include "util/check.h"

namespace gz {
namespace {

// Replay and routing frames are chunked so a shard's receive buffer
// stays bounded no matter how long an unacked log grows.
constexpr size_t kMaxUpdatesPerFrame = 1 << 18;

// Hands every cluster in the process a distinct serial for its
// checkpoint file names.
std::atomic<uint64_t> next_cluster_serial{0};

}  // namespace

ShardCluster::ShardCluster(const GraphZeppelinConfig& base, int num_shards,
                           ShardClusterOptions options)
    : base_(base),
      options_(std::move(options)),
      serial_(next_cluster_serial.fetch_add(1, std::memory_order_relaxed)),
      cache_(options_.migrate_nodes_per_chunk) {
  GZ_CHECK(num_shards >= 1);
  GZ_CHECK(options_.migrate_nodes_per_chunk >= 1);
  replication_ = options_.replication_factor;
  if (replication_ < 1 ||
      replication_ > static_cast<int>(RoutingTable::kMaxReplication)) {
    // A deployment-config error, reported from Start() like a malformed
    // endpoint URI — not a programmer-error abort.
    endpoint_error_ = Status::InvalidArgument(
        "replication_factor " + std::to_string(replication_) +
        " is outside [1, " + std::to_string(RoutingTable::kMaxReplication) +
        "]");
    replication_ = 1;
  }
  const size_t max_endpoints =
      static_cast<size_t>(num_shards) * static_cast<size_t>(replication_);
  if (options_.shard_endpoints.size() > max_endpoints) {
    endpoint_error_ = Status::InvalidArgument(
        std::to_string(options_.shard_endpoints.size()) +
        " shard endpoints for " + std::to_string(num_shards) +
        " shards with replication factor " + std::to_string(replication_));
    options_.shard_endpoints.resize(max_endpoints);
  }
  binary_ = options_.shard_binary.empty() ? DefaultShardBinary()
                                          : options_.shard_binary;
  if (options_.checkpoint_dir.empty()) options_.checkpoint_dir = base_.disk_dir;
  const char* env_log_dir = std::getenv("GZ_SHARD_LOG_DIR");
  log_dir_ = !options_.log_dir.empty() ? options_.log_dir
             : (env_log_dir != nullptr && *env_log_dir != '\0')
                 ? env_log_dir
                 : base_.disk_dir;
  ::mkdir(log_dir_.c_str(), 0755);  // Best-effort; EEXIST is the norm.

  table_ = MakeRoutingTable(num_shards);
  table_.replication = static_cast<uint32_t>(replication_);
  for (int s = 0; s < num_shards; ++s) {
    // A malformed endpoint URI surfaces from Start(); construction
    // itself cannot return a Status (the slot still allocates, as a
    // local placeholder, so the id space stays dense). The endpoint
    // list is shard-major: replica r of shard s is entry
    // s * replication + r.
    std::vector<ShardEndpoint> endpoints(replication_);
    for (int r = 0; r < replication_; ++r) {
      const size_t flat = static_cast<size_t>(s) * replication_ + r;
      if (flat >= options_.shard_endpoints.size()) continue;
      Result<ShardEndpoint> parsed =
          ParseShardEndpoint(options_.shard_endpoints[flat]);
      if (parsed.ok()) {
        endpoints[r] = std::move(parsed).value();
      } else if (endpoint_error_.ok()) {
        endpoint_error_ = parsed.status();
      }
    }
    const int id = AllocateShardSlot(std::move(endpoints));
    GZ_CHECK(id == s);
    for (int r = 0; r < replication_; ++r) {
      procs_[id][r] = MakeTransportFor(id, r);
    }
  }
}

ShardCluster::~ShardCluster() {
  if (started_) Shutdown();
  for (int s = 0; s < num_shards(); ++s) {
    for (int r = 0; r < replication_; ++r) {
      // Unconditional: a checkpoint file can exist without an ack
      // (shard crashed between publishing and replying), and a removed
      // shard's may linger if its final unlink raced a crash.
      ::unlink(CheckpointPath(s, r).c_str());
      ::unlink((CheckpointPath(s, r) + ".tmp").c_str());
    }
  }
}

std::unique_ptr<ShardTransport> ShardCluster::MakeTransportFor(
    int shard, int replica) const {
  ShardTransportOptions topts;
  topts.binary = binary_;
  topts.log_path = LogPath(shard, replica);
  topts.auth_secret = options_.auth_secret;
  return MakeShardTransport(endpoints_[shard][replica], topts);
}

int ShardCluster::AllocateShardSlot(std::vector<ShardEndpoint> endpoints) {
  GZ_CHECK(endpoints.size() == static_cast<size_t>(replication_));
  const int id = static_cast<int>(procs_.size());
  procs_.emplace_back(replication_);  // Replica transports, still null.
  endpoints_.push_back(std::move(endpoints));
  down_.emplace_back(replication_, true);  // Up only once configured.
  route_bufs_.emplace_back();
  unacked_.emplace_back(replication_);
  pending_deltas_.emplace_back(replication_);
  delta_seq_sent_.emplace_back(replication_, 0);
  checkpoint_delta_seq_.emplace_back(replication_, 0);
  has_checkpoint_.emplace_back(replication_, false);
  checkpoint_updates_.emplace_back(replication_, 0);
  return id;
}

void ShardCluster::ReleaseLastShardSlot(int id) {
  // Full rollback of a just-allocated id whose spawn failed, so the id
  // space stays dense (a burned id would make identical op sequences
  // hand out different ids — and different tables — depending on
  // whether a spawn failed along the way).
  GZ_CHECK(id == static_cast<int>(procs_.size()) - 1);
  procs_.pop_back();
  endpoints_.pop_back();
  down_.pop_back();
  route_bufs_.pop_back();
  unacked_.pop_back();
  pending_deltas_.pop_back();
  delta_seq_sent_.pop_back();
  checkpoint_delta_seq_.pop_back();
  has_checkpoint_.pop_back();
  checkpoint_updates_.pop_back();
}

std::vector<int> ShardCluster::ActiveShards() const {
  std::vector<int> ids;
  for (int s = 0; s < num_shards(); ++s) {
    if (!procs_[s].empty()) ids.push_back(s);
  }
  return ids;
}

int ShardCluster::num_active_shards() const {
  int n = 0;
  for (const auto& p : procs_) n += !p.empty();
  return n;
}

int ShardCluster::FirstUnfencedReplica(int shard) const {
  for (int r = 0; r < replication_; ++r) {
    if (!down_[shard][r]) return r;
  }
  return -1;
}

int ShardCluster::FirstLiveReplica(int shard) {
  for (int r = 0; r < replication_; ++r) {
    if (!down_[shard][r] && procs_[shard][r]->Alive()) return r;
  }
  return -1;
}

std::string ShardCluster::CheckpointPath(int shard, int replica) const {
  // Coordinator pid + cluster serial + seed + shard index: clusters
  // sharing one checkpoint_dir — across processes or within one, even
  // at the same seed — cannot clobber each other. Replica 0 keeps the
  // unsuffixed pre-replication name.
  return options_.checkpoint_dir + "/gz_shard_ckpt_p" +
         std::to_string(::getpid()) + "_c" + std::to_string(serial_) +
         "_s" + std::to_string(base_.seed) + "_" + std::to_string(shard) +
         (replica > 0 ? "_r" + std::to_string(replica) : std::string()) +
         ".bin";
}

std::string ShardCluster::LogPath(int shard, int replica) const {
  return log_dir_ + "/gz_shard_p" + std::to_string(::getpid()) + "_s" +
         std::to_string(base_.seed) + "_shard" + std::to_string(shard) +
         (replica > 0 ? "_r" + std::to_string(replica) : std::string()) +
         ".log";
}

GraphZeppelinConfig ShardCluster::ShardConfigFor(int shard,
                                                 int replica) const {
  GraphZeppelinConfig config = base_;
  config.instance_tag = "shard" + std::to_string(shard);
  if (replica > 0) {
    config.instance_tag += 'r';
    config.instance_tag += std::to_string(replica);
  }
  return config;
}

Status ShardCluster::SpawnAndConfigure(int shard, int replica, bool restore,
                                       uint64_t* restored,
                                       uint64_t* restored_delta_seq) {
  ShardTransport& proc = *procs_[shard][replica];
  Status s = proc.Connect();
  if (!s.ok()) return s;
  ShardConfig sc;
  sc.config = ShardConfigFor(shard, replica);
  sc.shard_id = shard;
  sc.table = table_;
  if (restore && has_checkpoint_[shard][replica]) {
    sc.restore_checkpoint = CheckpointPath(shard, replica);
  }
  const std::vector<uint8_t> payload = EncodeShardConfig(sc);
  ShardAck ack;
  s = proc.CallAck(ShardMessageType::kConfig, payload.data(), payload.size(),
                   &ack);
  if (!s.ok()) {
    proc.Terminate();
    return s;
  }
  if (restored != nullptr) *restored = ack.value0;
  if (restored_delta_seq != nullptr) *restored_delta_seq = ack.value1;
  down_[shard][replica] = false;
  return Status::Ok();
}

Status ShardCluster::Start() {
  if (started_) return Status::FailedPrecondition("cluster already started");
  if (!endpoint_error_.ok()) return endpoint_error_;
  for (int s = 0; s < num_shards(); ++s) {
    for (int r = 0; r < replication_; ++r) {
      Status st =
          SpawnAndConfigure(s, r, /*restore=*/false, nullptr, nullptr);
      if (!st.ok()) return st;
    }
  }
  started_ = true;
  return Status::Ok();
}

Status ShardCluster::SendUpdateFrames(int shard, int replica,
                                      const GraphUpdate* updates,
                                      size_t count) {
  // Every frame is stamped with the epoch it is sent (not originally
  // routed) under: the stamp asserts "coordinator and shard agree on
  // the current table", and the durability log — not the table — owns
  // the placement of already-routed updates, so replays re-stamp.
  const uint64_t epoch = table_.epoch;
  for (size_t off = 0; off < count; off += kMaxUpdatesPerFrame) {
    const size_t n = std::min(kMaxUpdatesPerFrame, count - off);
    Status s = SendFrame2(procs_[shard][replica]->fd(),
                          ShardMessageType::kUpdateBatch, &epoch,
                          sizeof(epoch), updates + off,
                          n * sizeof(GraphUpdate));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ShardCluster::Update(const GraphUpdate* updates, size_t count) {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  for (size_t i = 0; i < count; ++i) {
    // Fail-fast parity with GraphZeppelin's API boundary: a
    // malformed edge already aborts inside ShardFor (EdgeToIndex), and
    // a garbage type byte must abort HERE rather than make a shard
    // drop the whole frame it rides in.
    GZ_CHECK_MSG(static_cast<uint8_t>(updates[i].type) <= 1,
                 "invalid GraphUpdate type byte");
    route_bufs_[ShardFor(updates[i].edge)].push_back(updates[i]);
  }
  for (int s = 0; s < num_shards(); ++s) {
    std::vector<GraphUpdate>& buf = route_bufs_[s];
    if (buf.empty()) continue;
    GZ_CHECK_MSG(!procs_[s].empty(),
                 "table routed an update to a removed shard");
    for (int r = 0; r < replication_; ++r) {
      // Durability before transport: every replica's log must already
      // cover these updates when a mid-frame send failure strikes, so
      // repair can reconstruct the replica without loss.
      unacked_[s][r].insert(unacked_[s][r].end(), buf.begin(), buf.end());
      if (!down_[s][r]) {
        Status st = SendUpdateFrames(s, r, buf.data(), buf.size());
        if (!st.ok()) {
          // Replica unreachable: fence it and keep buffering. Nothing
          // is lost — the log holds everything since its checkpoint,
          // and the other replicas keep ingesting.
          down_[s][r] = true;
        }
      }
    }
    buf.clear();  // Keeps capacity for the next span.
  }
  // Periodic auto-checkpoint bounds the unacked logs: without it the
  // coordinator would retain the whole stream in RAM. Best-effort — a
  // failure (down shard, unwritable checkpoint dir) defers truncation
  // to the next interval; ingestion itself keeps going, so the error
  // is logged rather than returned.
  updates_since_checkpoint_ += count;
  if (options_.checkpoint_interval_updates > 0 &&
      updates_since_checkpoint_ >= options_.checkpoint_interval_updates) {
    Status ckpt = Checkpoint();  // Resets the counter on success.
    if (!ckpt.ok()) {
      std::fprintf(stderr,
                   "ShardCluster: auto-checkpoint failed (%s); durability "
                   "logs keep growing until one succeeds\n",
                   ckpt.ToString().c_str());
    }
  }
  // Periodic anti-entropy rejoins dead replicas and repairs divergence
  // without the caller having to notice. Best-effort like the
  // checkpoint, and paced by the interval even when it fails (a
  // permanently unrepairable replica must not turn every span into a
  // repair attempt).
  updates_since_reconcile_ += count;
  if (options_.reconcile_interval_updates > 0 &&
      updates_since_reconcile_ >= options_.reconcile_interval_updates) {
    updates_since_reconcile_ = 0;
    if (replication_ > 1) {
      Status rec = Reconcile(nullptr);
      if (!rec.ok()) {
        std::fprintf(stderr,
                     "ShardCluster: periodic reconcile failed (%s)\n",
                     rec.ToString().c_str());
      }
    }
  }
  return Status::Ok();
}

Status ShardCluster::RequireAllHealthy() {
  for (int s = 0; s < num_shards(); ++s) {
    if (procs_[s].empty()) continue;  // Removed ids are not shards.
    for (int r = 0; r < replication_; ++r) {
      if (down_[s][r] || !procs_[s][r]->Alive()) {
        return Status::FailedPrecondition(
            "shard " + std::to_string(s) +
            (r > 0 ? " replica " + std::to_string(r) : std::string()) +
            " is down; RestartShard() it before a cluster-wide barrier");
      }
    }
  }
  return Status::Ok();
}

Status ShardCluster::PipelinedBarrier(
    ShardMessageType type, ShardMessageType expected_reply,
    const std::function<std::string(int shard, int replica)>& payload_for,
    const std::function<Status(int shard, int replica,
                               const ShardFrame& reply)>& on_reply,
    BarrierScope scope) {
  std::vector<std::pair<int, int>> targets;
  if (scope == BarrierScope::kAllReplicas) {
    Status s = RequireAllHealthy();
    if (!s.ok()) return s;
    for (int i = 0; i < num_shards(); ++i) {
      if (procs_[i].empty()) continue;
      for (int r = 0; r < replication_; ++r) targets.emplace_back(i, r);
    }
  } else {
    // One live replica per shard; a shard with none fails the fold the
    // same way the all-replica barrier reports a down shard.
    for (int i = 0; i < num_shards(); ++i) {
      if (procs_[i].empty()) continue;
      const int r = FirstLiveReplica(i);
      if (r < 0) {
        return Status::FailedPrecondition(
            "shard " + std::to_string(i) +
            " is down; RestartShard() it before a cluster-wide barrier");
      }
      targets.emplace_back(i, r);
    }
  }
  std::vector<bool> sent(targets.size(), false);
  Status first_error = Status::Ok();
  for (size_t t = 0; t < targets.size(); ++t) {
    const auto [i, r] = targets[t];
    const std::string payload =
        payload_for ? payload_for(i, r) : std::string();
    Status s =
        SendFrame(procs_[i][r]->fd(), type, payload.data(), payload.size());
    if (s.ok()) {
      sent[t] = true;
    } else {
      down_[i][r] = true;
      if (first_error.ok()) first_error = s;
    }
  }
  for (size_t t = 0; t < targets.size(); ++t) {
    if (!sent[t]) continue;
    const auto [i, r] = targets[t];
    bool in_sync = false;
    Status s =
        RecvReply(procs_[i][r]->fd(), expected_reply, &reply_buf_, &in_sync);
    if (s.ok() && on_reply) s = on_reply(i, r, reply_buf_);
    if (!s.ok()) {
      if (!in_sync) down_[i][r] = true;
      if (first_error.ok()) first_error = s;
    }
  }
  return first_error;
}

Status ShardCluster::Flush() {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  return PipelinedBarrier(ShardMessageType::kFlush, ShardMessageType::kAck,
                          nullptr, nullptr);
}

Result<GraphSnapshot> ShardCluster::Snapshot() {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  // One range read of [0, num_nodes) per shard, XOR-folded in arrival
  // order into a zero snapshot straight from the reply bytes: peak
  // memory is one snapshot + one reply buffer regardless of shard
  // count. One live replica answers per shard — all live replicas are
  // bitwise-equal, so any one is the shard. Deliberately not served
  // from cache_, whose per-shard terms would stay resident beside the
  // merged copy. (On a barrier failure the helper still folds drained
  // replies; the result is discarded with the error.)
  const std::vector<uint8_t> whole = EncodeMigrateExtract(0, base_.num_nodes);
  const std::string request(whole.begin(), whole.end());
  GraphSnapshot merged = GraphSnapshot::Zero(SketchParams());
  Status s = PipelinedBarrier(
      ShardMessageType::kMigrateExtract, ShardMessageType::kMigrateData,
      [&request](int, int) { return request; },
      [&merged](int, int, const ShardFrame& reply) {
        return merged.MergeSerializedNodeRange(reply.payload.data(),
                                               reply.payload.size());
      },
      BarrierScope::kOnePerShard);
  if (!s.ok()) return s;
  // Range reads carry no counts. FIFO sockets make each shard's
  // content exactly its watermark position, and removed shards'
  // ingested counts live on in migrated_updates_ (their content moved
  // to survivors as count-free deltas).
  merged.SetUpdates(TotalUpdates(Watermarks()));
  return merged;
}

Result<HeavyHitterSketch> ShardCluster::HeavyHitters() {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (base_.heavy_hitter_width == 0) {
    return Status::FailedPrecondition(
        "heavy-hitter tracking disabled (heavy_hitter_width == 0)");
  }
  // Sum-merge one live replica per shard (all replicas of a shard hold
  // identical counters — every routed slab fans out to all of them),
  // then fold in what removed shards contributed before retiring.
  HeavyHitterSketch merged;
  Status s = PipelinedBarrier(
      ShardMessageType::kHeavyHitters, ShardMessageType::kHeavyHitterBytes,
      nullptr,
      [&merged](int, int, const ShardFrame& reply) {
        Result<HeavyHitterSketch> r = HeavyHitterSketch::Deserialize(
            reply.payload.data(), reply.payload.size());
        if (!r.ok()) return r.status();
        if (!merged.valid()) {
          merged = std::move(r).value();
          return Status::Ok();
        }
        return merged.Merge(r.value());
      },
      BarrierScope::kOnePerShard);
  if (!s.ok()) return s;
  if (retired_hh_.valid()) {
    if (!merged.valid()) {
      merged = retired_hh_;
    } else {
      s = merged.Merge(retired_hh_);
      if (!s.ok()) return s;
    }
  }
  if (!merged.valid()) return Status::Internal("no heavy-hitter replies");
  return merged;
}

Status ShardCluster::Checkpoint() {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  // Per-replica commit as each ack arrives: a failure on one replica
  // must not discard the commits of replicas whose checkpoints already
  // landed — their disk state has moved, and the coordinator's view has
  // to move with it.
  Status s = PipelinedBarrier(
      ShardMessageType::kCheckpoint, ShardMessageType::kAck,
      [this](int i, int r) { return CheckpointPath(i, r); },
      [this](int i, int r, const ShardFrame& reply) {
        ShardAck ack;
        Status d = DecodeShardAck(reply.payload.data(), reply.payload.size(),
                                  &ack);
        if (!d.ok()) return d;
        // The checkpoint covers everything sent before it (the socket
        // is FIFO and the shard single-threaded): all unacked updates
        // AND all pending deltas, so both logs restart empty.
        has_checkpoint_[i][r] = true;
        checkpoint_updates_[i][r] = ack.value0;
        checkpoint_delta_seq_[i][r] = ack.value1;
        unacked_[i][r].clear();
        std::vector<PendingDelta>& deltas = pending_deltas_[i][r];
        deltas.erase(std::remove_if(deltas.begin(), deltas.end(),
                                    [&ack](const PendingDelta& d) {
                                      return d.seq <= ack.value1;
                                    }),
                     deltas.end());
        return Status::Ok();
      });
  if (s.ok()) updates_since_checkpoint_ = 0;
  return s;
}

// ---- Elastic resharding ----------------------------------------------------

Status ShardCluster::BroadcastTable() {
  const std::vector<uint8_t> payload = EncodeRoutingTable(table_);
  const std::string payload_str(payload.begin(), payload.end());
  return PipelinedBarrier(
      ShardMessageType::kEpoch, ShardMessageType::kAck,
      [&payload_str](int, int) { return payload_str; }, nullptr);
}

Status ShardCluster::SendDelta(int shard, int replica,
                               const std::vector<uint8_t>& bytes) {
  ShardAck ack;
  Status s = procs_[shard][replica]->CallAck(ShardMessageType::kMergeDelta,
                                             bytes.data(), bytes.size(),
                                             &ack);
  if (!s.ok()) {
    // Transport loss or a diverged shard; either way repair — replay or
    // reconcile — re-delivers the content.
    down_[shard][replica] = true;
  }
  return s;
}

Result<std::vector<ShardEndpoint>> ShardCluster::ParseReplicaEndpoints(
    const std::string& endpoint) const {
  std::vector<std::string> parts;
  if (!endpoint.empty()) {
    size_t start = 0;
    while (true) {
      const size_t comma = endpoint.find(',', start);
      parts.push_back(endpoint.substr(start, comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  if (parts.size() > static_cast<size_t>(replication_)) {
    return Status::InvalidArgument(
        std::to_string(parts.size()) + " replica endpoints for a shard "
        "with replication factor " + std::to_string(replication_));
  }
  std::vector<ShardEndpoint> endpoints(replication_);  // Default: local.
  for (size_t r = 0; r < parts.size(); ++r) {
    Result<ShardEndpoint> parsed = ParseShardEndpoint(parts[r]);
    if (!parsed.ok()) return parsed.status();
    endpoints[r] = std::move(parsed).value();
  }
  return endpoints;
}

Result<int> ShardCluster::AddShard(const std::string& endpoint) {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (migration_.has_value()) {
    return Status::FailedPrecondition(
        "a migration is active; pump it to completion first");
  }
  if (num_active_shards() >=
      static_cast<int>(RoutingTable::kNumSlots)) {
    return Status::FailedPrecondition(
        "slot table is full; cannot add another shard");
  }
  Result<std::vector<ShardEndpoint>> parsed = ParseReplicaEndpoints(endpoint);
  if (!parsed.ok()) return parsed.status();
  Status s = RequireAllHealthy();
  if (!s.ok()) return s;
  const RoutingTable old_table = table_;
  const int id = AllocateShardSlot(std::move(parsed).value());
  for (int r = 0; r < replication_; ++r) {
    procs_[id][r] = MakeTransportFor(id, r);
  }
  table_ = TableWithShardAdded(old_table, id);
  // The new shard's CONFIG already carries the new table, so it comes
  // up at the current epoch; everyone else learns it from the
  // broadcast. No state migrates: an empty shard is a zero sketch, and
  // zero is the XOR identity.
  for (int r = 0; r < replication_ && s.ok(); ++r) {
    s = SpawnAndConfigure(id, r, /*restore=*/false, nullptr, nullptr);
  }
  if (!s.ok()) {
    for (auto& proc : procs_[id]) proc->Terminate();
    ReleaseLastShardSlot(id);
    table_ = old_table;
    return s;
  }
  s = BroadcastTable();
  if (!s.ok()) return s;
  return id;
}

Status ShardCluster::BeginRemoveShard(int shard) {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  GZ_CHECK(shard >= 0 && shard < num_shards());
  if (procs_[shard].empty()) {
    return Status::FailedPrecondition("shard already removed");
  }
  if (migration_.has_value()) {
    return Status::FailedPrecondition(
        "a migration is active; pump it to completion first");
  }
  if (num_active_shards() < 2) {
    return Status::FailedPrecondition("cannot remove the last shard");
  }
  Status s = RequireAllHealthy();
  if (!s.ok()) return s;
  table_ = TableWithShardRemoved(table_, shard);
  s = BroadcastTable();
  if (!s.ok()) return s;
  // From this epoch on nothing routes to `shard`; its accumulated state
  // drains into the smallest surviving shard. Any single survivor is a
  // correct fold target — the global XOR is what queries see.
  Migration m;
  m.kind = Migration::Kind::kRemove;
  m.source = shard;
  for (const int id : ActiveShards()) {
    if (id != shard) {
      m.target = id;
      break;
    }
  }
  m.next_node = 0;
  m.end_node = base_.num_nodes;
  migration_ = m;
  return Status::Ok();
}

Result<int> ShardCluster::BeginSplitShard(int shard,
                                          const std::string& endpoint) {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  GZ_CHECK(shard >= 0 && shard < num_shards());
  if (procs_[shard].empty()) {
    return Status::FailedPrecondition("shard already removed");
  }
  if (migration_.has_value()) {
    return Status::FailedPrecondition(
        "a migration is active; pump it to completion first");
  }
  // Keeps the every-live-shard-owns-a-slot invariant: the child takes
  // half the source's slots, so the source needs at least two.
  if (TableSlotCount(table_, shard) < 2) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(shard) +
        " owns too few routing slots to split");
  }
  Result<std::vector<ShardEndpoint>> parsed = ParseReplicaEndpoints(endpoint);
  if (!parsed.ok()) return parsed.status();
  Status s = RequireAllHealthy();
  if (!s.ok()) return s;
  const RoutingTable old_table = table_;
  const int id = AllocateShardSlot(std::move(parsed).value());
  for (int r = 0; r < replication_; ++r) {
    procs_[id][r] = MakeTransportFor(id, r);
  }
  table_ = TableWithShardSplit(old_table, shard, id);
  for (int r = 0; r < replication_ && s.ok(); ++r) {
    s = SpawnAndConfigure(id, r, /*restore=*/false, nullptr, nullptr);
  }
  if (!s.ok()) {
    for (auto& proc : procs_[id]) proc->Terminate();
    ReleaseLastShardSlot(id);
    table_ = old_table;
    return s;
  }
  s = BroadcastTable();
  if (!s.ok()) return s;
  // Balance memory too, not just routing: the upper half of the node
  // range of the source's accumulated state moves to the new shard.
  // (Any fixed range is exact under the XOR fold; half keeps the two
  // sides' footprints comparable.)
  Migration m;
  m.kind = Migration::Kind::kSplit;
  m.source = shard;
  m.target = id;
  m.next_node = base_.num_nodes / 2;
  m.end_node = base_.num_nodes;
  migration_ = m;
  return id;
}

int ShardCluster::migration_source() const {
  GZ_CHECK(migration_.has_value());
  return migration_->source;
}

int ShardCluster::migration_target() const {
  GZ_CHECK(migration_.has_value());
  return migration_->target;
}

Status ShardCluster::PumpMigration() {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (!migration_.has_value()) {
    return Status::FailedPrecondition("no active migration");
  }
  Migration& m = *migration_;
  // One unfenced replica per side is enough to pump: fenced replicas
  // get their folds from the logs (restart replay) or from a later
  // reconcile. With no replica left the migration waits for repair.
  const int src = FirstUnfencedReplica(m.source);
  if (src < 0 || FirstUnfencedReplica(m.target) < 0) {
    return Status::FailedPrecondition(
        "migration shard is down; RestartShard() it, then keep pumping");
  }
  if (m.next_node < m.end_node) {
    const uint64_t lo = m.next_node;
    const uint64_t hi =
        std::min(m.end_node, lo + options_.migrate_nodes_per_chunk);
    // Extract is read-only on the source (its internal flush makes the
    // chunk cover everything framed to it so far), so a failure here
    // mutates nothing and the chunk is simply retried after repair.
    const std::vector<uint8_t> req = EncodeMigrateExtract(lo, hi);
    Status s = SendFrame(procs_[m.source][src]->fd(),
                         ShardMessageType::kMigrateExtract, req.data(),
                         req.size());
    if (!s.ok()) {
      down_[m.source][src] = true;
      return s;
    }
    bool in_sync = false;
    s = RecvReply(procs_[m.source][src]->fd(),
                  ShardMessageType::kMigrateData, &reply_buf_, &in_sync);
    if (!s.ok()) {
      if (!in_sync) down_[m.source][src] = true;
      return s;
    }
    // Durability before transport, as with the update logs: both folds
    // — install on the target, XOR-cancel on the source — enter EVERY
    // replica's pending-delta log and the cursor advances BEFORE any
    // frame is sent. Whatever dies after this point, restart replay
    // (with the checkpoint's delta sequence number skipping what a
    // published checkpoint already covers) re-delivers exactly the
    // missing folds, and the migration resumes at the next chunk.
    for (int r = 0; r < replication_; ++r) {
      pending_deltas_[m.target][r].push_back(
          {++delta_seq_sent_[m.target][r], reply_buf_.payload});
    }
    for (int r = 0; r < replication_; ++r) {
      pending_deltas_[m.source][r].push_back(
          {++delta_seq_sent_[m.source][r], reply_buf_.payload});
    }
    m.next_node = hi;
    // BOTH sides' sends must be attempted even if the first fails: a
    // logged delta must either reach its replica now or leave that
    // replica fenced (SendDelta fences on failure) so repair delivers
    // it. Returning between the sends would strand the source's cancel
    // on a HEALTHY replica — nothing would ever deliver it, later
    // deltas would close the sequence gap, and a checkpoint would
    // truncate the one unsent fold, silently cancelling the chunk out
    // of the global XOR. Fenced replicas are skipped the same way: the
    // logged entry is their delivery.
    Status install = Status::Ok();
    for (int r = 0; r < replication_; ++r) {
      if (down_[m.target][r]) continue;
      Status st =
          SendDelta(m.target, r, pending_deltas_[m.target][r].back().bytes);
      if (!st.ok() && install.ok()) install = st;
    }
    Status cancel = Status::Ok();
    for (int r = 0; r < replication_; ++r) {
      if (down_[m.source][r]) continue;
      Status st =
          SendDelta(m.source, r, pending_deltas_[m.source][r].back().bytes);
      if (!st.ok() && cancel.ok()) cancel = st;
    }
    return install.ok() ? cancel : install;
  }
  // Final step. For a split there is nothing left to do; for a removal
  // the source — now a zero sketch holding no routed slots — retires.
  if (m.kind == Migration::Kind::kRemove) {
    // The retiring shard's heavy-hitter counters are additive state
    // that no migration delta carries (deltas move XOR sketch content
    // only), so they are captured here, before the process goes away,
    // and folded into every later HeavyHitters() answer. Fetched and
    // staged BEFORE any bookkeeping commits: a failure anywhere in
    // this step leaves nothing applied, so the step retries cleanly.
    HeavyHitterSketch source_hh;
    if (base_.heavy_hitter_width > 0) {
      Status s = SendFrame(procs_[m.source][src]->fd(),
                           ShardMessageType::kHeavyHitters, nullptr, 0);
      if (!s.ok()) {
        down_[m.source][src] = true;
        return s;
      }
      bool in_sync = false;
      s = RecvReply(procs_[m.source][src]->fd(),
                    ShardMessageType::kHeavyHitterBytes, &reply_buf_,
                    &in_sync);
      if (!s.ok()) {
        if (!in_sync) down_[m.source][src] = true;
        return s;
      }
      Result<HeavyHitterSketch> hh = HeavyHitterSketch::Deserialize(
          reply_buf_.payload.data(), reply_buf_.payload.size());
      if (!hh.ok()) return hh.status();
      source_hh = std::move(hh).value();
    }
    // The source is quiescent (no slots since the epoch bump, flushed
    // by every extract), so its position is final; it must survive in
    // the aggregate update count after the process goes away. A sticky
    // divergence error surfaces here and blocks the removal.
    ShardStatsEx ex;
    Status s = ReplicaStatsEx(m.source, src, &ex);
    if (!s.ok()) return s;
    // Commit point: nothing below can fail, so the captured counters
    // and the update count land exactly once.
    migrated_updates_ += ex.num_updates;
    if (source_hh.valid()) {
      if (!retired_hh_.valid()) {
        retired_hh_ = std::move(source_hh);
      } else {
        // Same cluster-wide params by construction.
        GZ_CHECK(retired_hh_.Merge(source_hh).ok());
      }
    }
    for (int r = 0; r < replication_; ++r) {
      if (!down_[m.source][r]) {
        ShardAck ignored;
        procs_[m.source][r]->CallAck(ShardMessageType::kShutdown, nullptr, 0,
                                     &ignored);  // Best-effort orderly exit.
      }
      procs_[m.source][r]->Terminate();  // Degenerates to a reap.
      ::unlink(CheckpointPath(m.source, r).c_str());
      ::unlink((CheckpointPath(m.source, r) + ".tmp").c_str());
      down_[m.source][r] = true;
      unacked_[m.source][r].clear();
      pending_deltas_[m.source][r].clear();
      has_checkpoint_[m.source][r] = false;
    }
    procs_[m.source].clear();
  }
  migration_.reset();
  return Status::Ok();
}

Status ShardCluster::RemoveShard(int shard) {
  Status s = BeginRemoveShard(shard);
  while (s.ok() && migration_.has_value()) s = PumpMigration();
  return s;
}

Result<int> ShardCluster::SplitShard(int shard,
                                     const std::string& endpoint) {
  Result<int> id = BeginSplitShard(shard, endpoint);
  if (!id.ok()) return id;
  Status s = Status::Ok();
  while (s.ok() && migration_.has_value()) s = PumpMigration();
  if (!s.ok()) return s;
  return id;
}

// ---- Lifecycle -------------------------------------------------------------

std::vector<bool> ShardCluster::HealthCheck() {
  std::vector<bool> alive(num_shards(), false);
  for (int s = 0; s < num_shards(); ++s) {
    if (procs_[s].empty()) continue;
    bool all_alive = true;
    for (int r = 0; r < replication_; ++r) {
      if (down_[s][r] || !procs_[s][r]->Alive()) {
        all_alive = false;
        continue;
      }
      ShardAck ack;
      if (!procs_[s][r]
               ->CallAck(ShardMessageType::kPing, nullptr, 0, &ack)
               .ok()) {
        down_[s][r] = true;
        all_alive = false;
      }
    }
    alive[s] = all_alive;
  }
  return alive;
}

void ShardCluster::KillShard(int shard, bool observed) {
  GZ_CHECK(shard >= 0 && shard < num_shards());
  GZ_CHECK_MSG(!procs_[shard].empty(), "shard already removed");
  for (int r = 0; r < replication_; ++r) KillReplica(shard, r, observed);
}

void ShardCluster::KillReplica(int shard, int replica, bool observed) {
  GZ_CHECK(shard >= 0 && shard < num_shards());
  GZ_CHECK(replica >= 0 && replica < replication_);
  GZ_CHECK_MSG(!procs_[shard].empty(), "shard already removed");
  procs_[shard][replica]->Terminate();
  if (observed) down_[shard][replica] = true;
}

Status ShardCluster::CorruptReplicaForTest(
    int shard, int replica, const std::vector<uint8_t>& delta_bytes) {
  GZ_CHECK(shard >= 0 && shard < num_shards());
  GZ_CHECK(replica >= 0 && replica < replication_);
  GZ_CHECK_MSG(!procs_[shard].empty(), "shard already removed");
  // Deliberately bypasses the pending-delta log AND delta_seq_sent_:
  // the fold lands on the shard but the coordinator's books never hear
  // of it. The replica's content and reported delta_seq now both
  // disagree with the books — silent divergence.
  ShardAck ack;
  return procs_[shard][replica]->CallAck(ShardMessageType::kMergeDelta,
                                         delta_bytes.data(),
                                         delta_bytes.size(), &ack);
}

Status ShardCluster::RestartReplica(int shard, int replica) {
  GZ_CHECK(shard >= 0 && shard < num_shards());
  GZ_CHECK(replica >= 0 && replica < replication_);
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (procs_[shard].empty()) {
    return Status::FailedPrecondition("shard was removed");
  }
  procs_[shard][replica]->Terminate();  // Reaps; no-op if already dead.
  uint64_t restored = 0, restored_seq = 0;
  Status s = SpawnAndConfigure(shard, replica, /*restore=*/true, &restored,
                               &restored_seq);
  if (!s.ok()) return s;
  // Replay everything the restored checkpoint does not cover. The
  // on-disk checkpoint may be AHEAD of the last acked one (the shard
  // published it, then died before the ack): a checkpoint covers
  // exactly the updates sent before its request — a prefix of the
  // unacked log — so the restored position tells how much of the log
  // to skip. The same reconciliation runs for migration deltas via the
  // checkpoint's delta sequence number. Linearity makes the replayed
  // replica bitwise-identical to one that never crashed either way.
  const std::vector<GraphUpdate>& log = unacked_[shard][replica];
  const uint64_t acked = has_checkpoint_[shard][replica]
                             ? checkpoint_updates_[shard][replica]
                             : 0;
  if (restored < acked || restored - acked > log.size()) {
    procs_[shard][replica]->Terminate();
    down_[shard][replica] = true;
    return Status::Internal(
        "restored shard position " + std::to_string(restored) +
        " is outside what the checkpoint plus the unacked log can "
        "explain");
  }
  if (restored_seq < checkpoint_delta_seq_[shard][replica] ||
      restored_seq > delta_seq_sent_[shard][replica]) {
    procs_[shard][replica]->Terminate();
    down_[shard][replica] = true;
    return Status::Internal(
        "restored shard delta sequence " + std::to_string(restored_seq) +
        " is outside what the checkpoint plus the pending deltas can "
        "explain");
  }
  const size_t skip = static_cast<size_t>(restored - acked);
  if (skip < log.size()) {
    s = SendUpdateFrames(shard, replica, log.data() + skip,
                         log.size() - skip);
    if (!s.ok()) {
      down_[shard][replica] = true;
      return s;
    }
  }
  // Replay order between updates and deltas does not matter — all XOR
  // folds commute — so deltas go second wholesale.
  for (const PendingDelta& delta : pending_deltas_[shard][replica]) {
    if (delta.seq <= restored_seq) continue;  // Checkpoint covers it.
    s = SendDelta(shard, replica, delta.bytes);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ShardCluster::RestartShard(int shard) {
  GZ_CHECK(shard >= 0 && shard < num_shards());
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (procs_[shard].empty()) {
    return Status::FailedPrecondition("shard was removed");
  }
  Status first_error = Status::Ok();
  for (int r = 0; r < replication_; ++r) {
    Status s = RestartReplica(shard, r);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

Status ShardCluster::Shutdown() {
  if (!started_) return Status::Ok();
  Status first_error = Status::Ok();
  for (int s = 0; s < num_shards(); ++s) {
    if (procs_[s].empty()) continue;
    for (int r = 0; r < replication_; ++r) {
      if (down_[s][r] || !procs_[s][r]->Alive()) {
        procs_[s][r]->Terminate();  // Reap whatever is left.
        continue;
      }
      ShardAck ack;
      Status st = procs_[s][r]->CallAck(ShardMessageType::kShutdown, nullptr,
                                        0, &ack);
      if (!st.ok() && first_error.ok()) first_error = st;
      // Orderly exit follows the ack; Kill() degenerates to a reap (the
      // SIGKILL lands on an exiting or exited process) and guarantees
      // no zombie either way.
      procs_[s][r]->Terminate();
      down_[s][r] = true;
    }
  }
  started_ = false;
  return first_error;
}

Status ShardCluster::ReplicaStatsEx(int shard, int replica,
                                    ShardStatsEx* ex) {
  Status s = SendFrame(procs_[shard][replica]->fd(),
                       ShardMessageType::kStatsEx, nullptr, 0);
  if (!s.ok()) {
    down_[shard][replica] = true;
    return s;
  }
  bool in_sync = false;
  s = RecvReply(procs_[shard][replica]->fd(),
                ShardMessageType::kStatsReply, &reply_buf_, &in_sync);
  if (!s.ok()) {
    if (!in_sync) down_[shard][replica] = true;
    return s;
  }
  s = DecodeShardStatsEx(reply_buf_.payload.data(),
                         reply_buf_.payload.size(), ex);
  if (!s.ok()) {
    down_[shard][replica] = true;  // A garbled reply payload: lost sync.
  }
  return s;
}

Result<ShardStats> ShardCluster::Stats(int shard) {
  GZ_CHECK(shard >= 0 && shard < num_shards());
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (procs_[shard].empty()) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " was removed");
  }
  const int replica = FirstUnfencedReplica(shard);
  if (replica < 0) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " is down");
  }
  ShardStatsEx ex;
  Status s = ReplicaStatsEx(shard, replica, &ex);
  if (!s.ok()) return s;
  ShardStats stats;
  stats.num_updates = ex.num_updates;
  stats.ram_bytes = ex.ram_bytes;
  stats.epoch = ex.epoch;
  stats.delta_seq = ex.delta_seq;
  return stats;
}

// ---- Replication -----------------------------------------------------------

Status ShardCluster::ExtractRange(int shard, int replica, uint64_t lo,
                                  uint64_t hi) {
  const std::vector<uint8_t> req = EncodeMigrateExtract(lo, hi);
  Status s = SendFrame(procs_[shard][replica]->fd(),
                       ShardMessageType::kMigrateExtract, req.data(),
                       req.size());
  if (!s.ok()) {
    down_[shard][replica] = true;
    return s;
  }
  bool in_sync = false;
  s = RecvReply(procs_[shard][replica]->fd(),
                ShardMessageType::kMigrateData, &reply_buf_, &in_sync);
  if (!s.ok() && !in_sync) down_[shard][replica] = true;
  return s;
}

Status ShardCluster::CheckpointReplica(int shard, int replica) {
  const std::string path = CheckpointPath(shard, replica);
  ShardAck ack;
  Status s = procs_[shard][replica]->CallAck(ShardMessageType::kCheckpoint,
                                             path.data(), path.size(), &ack);
  if (!s.ok()) {
    down_[shard][replica] = true;
    return s;
  }
  // Same per-replica commit the Checkpoint() barrier runs.
  has_checkpoint_[shard][replica] = true;
  checkpoint_updates_[shard][replica] = ack.value0;
  checkpoint_delta_seq_[shard][replica] = ack.value1;
  unacked_[shard][replica].clear();
  std::vector<PendingDelta>& deltas = pending_deltas_[shard][replica];
  deltas.erase(std::remove_if(deltas.begin(), deltas.end(),
                              [&ack](const PendingDelta& d) {
                                return d.seq <= ack.value1;
                              }),
               deltas.end());
  return Status::Ok();
}

Status ShardCluster::RepairReplica(int shard, int replica, int reference,
                                   uint64_t expected_updates,
                                   std::vector<uint8_t>* diff,
                                   uint64_t* repaired_chunks) {
  const bool rejoined = down_[shard][replica];
  if (rejoined) {
    // Rejoin is reconnect + reconcile: the replica comes back EMPTY (a
    // zero sketch — the XOR identity) and the diff sweep below
    // transfers exactly the reference's content. Its books and logs
    // stay untouched until the repair completes, so a crash mid-repair
    // leaves the classic restore+replay lineage intact — RestartShard
    // still works, and so does another Reconcile.
    procs_[shard][replica]->Terminate();
    Status st = SpawnAndConfigure(shard, replica, /*restore=*/false, nullptr,
                                  nullptr);
    if (!st.ok()) {
      down_[shard][replica] = true;
      return st;
    }
    down_[shard][replica] = true;  // Fenced until fully repaired.
  }
  // A live replica whose reported position matches the books AND whose
  // content sweep finds nothing needs no finalization — the common
  // all-healthy case costs only the verification pulls.
  bool position_ok = false;
  if (!rejoined) {
    ShardStatsEx ex;
    Status st = ReplicaStatsEx(shard, replica, &ex);
    if (!st.ok()) return st;
    position_ok = ex.num_updates == expected_updates &&
                  ex.delta_seq == delta_seq_sent_[shard][replica] &&
                  ex.epoch == table_.epoch;
  }
  const NodeSketchParams params = SketchParams();
  uint64_t diffs = 0;
  for (uint64_t lo = 0; lo < base_.num_nodes;
       lo += options_.migrate_nodes_per_chunk) {
    const uint64_t hi =
        std::min(base_.num_nodes, lo + options_.migrate_nodes_per_chunk);
    // The reference's bytes are copied to `diff` before the second pull
    // reuses the receive buffer.
    Status st = ExtractRange(shard, reference, lo, hi);
    if (!st.ok()) return st;
    diff->assign(reply_buf_.payload.begin(), reply_buf_.payload.end());
    st = ExtractRange(shard, replica, lo, hi);
    if (!st.ok()) return st;
    const std::vector<uint8_t>& have = reply_buf_.payload;
    if (*diff == have) continue;  // Bitwise-equal chunk: nothing to do.
    ++diffs;
    // XOR-diff: both deltas describe [lo, hi) under one header, so
    // XORing the suspect's records into the reference's leaves
    // reference ^ suspect. Folding that difference into the suspect
    // makes it equal to the reference — whichever copy was behind, the
    // XOR moves it forward.
    size_t payload = 0;
    uint64_t want_lo = 0, want_hi = 0, have_lo = 0, have_hi = 0;
    st = GraphSnapshot::ParseSerializedNodeRange(
        diff->data(), diff->size(), params, &want_lo, &want_hi, &payload);
    if (st.ok()) {
      st = GraphSnapshot::ParseSerializedNodeRange(
          have.data(), have.size(), params, &have_lo, &have_hi);
    }
    if (!st.ok()) return st;
    if (want_lo != have_lo || want_hi != have_hi) {
      return Status::Internal("replicas returned different node ranges");
    }
    XorBytes(diff->data() + payload, have.data() + payload,
             diff->size() - payload);
    // Deliberately UNLOGGED (see Reconcile's contract): repair deltas
    // are content transfer, not replay lineage.
    ShardAck ack;
    st = procs_[shard][replica]->CallAck(ShardMessageType::kMergeDelta,
                                         diff->data(), diff->size(), &ack);
    if (!st.ok()) {
      down_[shard][replica] = true;
      return st;
    }
  }
  if (position_ok && diffs == 0) return Status::Ok();
  // Finalize: the repaired content now equals the reference's, but the
  // fold carried no counts and the repair folds bumped the shard-side
  // delta sequence — assert the logical position the content
  // represents, then anchor everything with the replica's own
  // checkpoint so its books and logs truncate to here. Only after both
  // land does the replica rejoin the live set.
  const std::vector<uint8_t> sync =
      EncodeSyncPosition(expected_updates, delta_seq_sent_[shard][replica]);
  ShardAck ack;
  Status st = procs_[shard][replica]->CallAck(
      ShardMessageType::kSyncPosition, sync.data(), sync.size(), &ack);
  if (!st.ok()) {
    down_[shard][replica] = true;
    return st;
  }
  st = CheckpointReplica(shard, replica);
  if (!st.ok()) return st;
  down_[shard][replica] = false;
  if (repaired_chunks != nullptr) *repaired_chunks += diffs;
  return Status::Ok();
}

Status ShardCluster::Reconcile(uint64_t* repaired_chunks) {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  if (repaired_chunks != nullptr) *repaired_chunks = 0;
  // One buffer for every chunk's XOR diff.
  std::vector<uint8_t> diff;
  Status first_error = Status::Ok();
  for (int s = 0; s < num_shards(); ++s) {
    if (procs_[s].empty()) continue;
    // What the books say the shard has ingested (identical across
    // replicas: checkpointed + unacked always sums to every routed
    // update). Replica 0's pair is also the serving watermark.
    const uint64_t expected =
        checkpoint_updates_[s][0] + unacked_[s][0].size();
    // Reference: the lowest-index live replica whose reported position
    // matches the books exactly. A diverged replica (an unlogged fold
    // moved its delta sequence past what the coordinator ever sent)
    // fails this check and becomes a repair target instead.
    int ref = -1;
    for (int r = 0; r < replication_ && ref < 0; ++r) {
      if (down_[s][r] || !procs_[s][r]->Alive()) continue;
      ShardStatsEx ex;
      Status st = ReplicaStatsEx(s, r, &ex);
      if (!st.ok()) {
        if (first_error.ok()) first_error = st;
        continue;
      }
      if (ex.num_updates == expected &&
          ex.delta_seq == delta_seq_sent_[s][r] &&
          ex.epoch == table_.epoch) {
        ref = r;
      }
    }
    if (ref < 0) {
      if (first_error.ok()) {
        first_error = Status::FailedPrecondition(
            "shard " + std::to_string(s) +
            " has no position-verified live replica to reconcile from; "
            "RestartShard() it first");
      }
      continue;
    }
    for (int r = 0; r < replication_; ++r) {
      if (r == ref) continue;
      Status st = RepairReplica(s, r, ref, expected, &diff,
                                repaired_chunks);
      if (!st.ok() && first_error.ok()) first_error = st;
    }
  }
  return first_error;
}

// ---- Serving tier ----------------------------------------------------------

NodeSketchParams ShardCluster::SketchParams() const {
  NodeSketchParams params;
  params.num_nodes = base_.num_nodes;
  params.seed = base_.seed;
  params.cols = base_.cols;
  params.rounds = base_.rounds > 0 ? base_.rounds
                                   : NodeSketch::DefaultRounds(base_.num_nodes);
  return params;
}

uint64_t ShardCluster::TotalUpdates(const ShardWatermarks& marks) const {
  uint64_t total = migrated_updates_;
  for (const auto& [shard, mark] : marks) total += mark.num_updates;
  return total;
}

ShardWatermarks ShardCluster::Watermarks() const {
  // Pure bookkeeping, no RPC: a shard's eventual update count is its
  // last acked checkpoint position plus its unacked log (the log holds
  // everything since, including updates buffered for a down replica),
  // and its delta position is the deltas framed to it. FIFO sockets
  // make shard content a pure function of this pair. Replica 0's books
  // stand for the shard: every replica carries the same logical
  // position, and repair-side checkpoints never move replica 0's
  // delta sequence.
  ShardWatermarks marks;
  for (int s = 0; s < num_shards(); ++s) {
    if (procs_[s].empty()) continue;
    ShardWatermark mark;
    mark.num_updates = checkpoint_updates_[s][0] + unacked_[s][0].size();
    mark.delta_seq = delta_seq_sent_[s][0];
    marks.emplace(s, mark);
  }
  return marks;
}

Status ShardCluster::CachedSnapshot(const GraphSnapshot** out) {
  if (!started_) return Status::FailedPrecondition("cluster not started");
  const ShardWatermarks marks = Watermarks();
  if (!cache_.Fresh(table_.epoch, marks)) {
    // The puller is the read-only extract RPC migration already uses;
    // FIFO ordering means the extracted bytes cover every frame sent
    // before the pull, i.e. exactly the watermark the key promises.
    // Any live replica serves — all of them are bitwise-equal at the
    // keyed position — so the pull fails over past dead ones.
    const Status s = cache_.Refresh(
        table_.epoch, marks, TotalUpdates(marks), SketchParams(),
        [this](int shard, uint64_t lo, uint64_t hi, const uint8_t** data,
               size_t* size) {
          if (procs_[shard].empty() || FirstUnfencedReplica(shard) < 0) {
            return Status::FailedPrecondition(
                "snapshot-cache refresh needs shard " +
                std::to_string(shard) +
                ", which is down; RestartShard() it first");
          }
          Status st = Status::Ok();
          for (int r = 0; r < replication_; ++r) {
            if (down_[shard][r]) continue;
            st = ExtractRange(shard, r, lo, hi);
            if (st.ok()) {
              // Read by the cache before the next pull reuses the buffer.
              *data = reply_buf_.payload.data();
              *size = reply_buf_.payload.size();
              return st;
            }
            // Fenced on failure; try the next.
          }
          return st;
        });
    if (!s.ok()) return s;
  }
  *out = &cache_.merged();
  return Status::Ok();
}

Result<size_t> ShardCluster::EvaluateStandingQueries(
    int threads, const StandingQueryNotifier& notifier) {
  if (standing_queries_.size() == 0) return size_t{0};
  const GraphSnapshot* snap = nullptr;
  const Status s = CachedSnapshot(&snap);
  if (!s.ok()) return s;
  return standing_queries_.Evaluate(*snap, table_.epoch, threads,
                                    notifier);
}

}  // namespace gz
