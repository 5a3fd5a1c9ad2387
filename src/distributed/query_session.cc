#include "distributed/query_session.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <map>
#include <utility>

#include <poll.h>
#include <unistd.h>

namespace gz {
namespace {

// Two position sweeps agree iff the same connections are alive and
// every live one reports the same (shard, epoch, updates, delta_seq)
// tuple — the seqlock's "sequence unchanged" check. Monotonicity of
// the position components makes equality proof of an unmoved position,
// not a coincidence; an alive-set change is treated as movement too
// (the staged pulls may have come from a connection that then died
// mid-sweep).
bool SamePosition(const std::vector<ShardStatsEx>& a,
                  const std::vector<bool>& alive_a,
                  const std::vector<ShardStatsEx>& b,
                  const std::vector<bool>& alive_b) {
  if (alive_a != alive_b) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!alive_a[i]) continue;
    if (a[i].shard_id != b[i].shard_id || a[i].epoch != b[i].epoch ||
        a[i].num_updates != b[i].num_updates ||
        a[i].delta_seq != b[i].delta_seq) {
      return false;
    }
  }
  return true;
}

}  // namespace

QuerySession::QuerySession(QuerySessionOptions options)
    : options_(std::move(options)), cache_(options_.nodes_per_chunk) {}

QuerySession::~QuerySession() { StopWatch(); }

Status QuerySession::Connect() {
  conns_.clear();
  conn_alive_.clear();
  conn_shard_ids_.clear();
  conn_error_ = Status::Ok();
  cache_.Invalidate();  // Cached content may predate a re-dial.
  frames_.clear();
  if (options_.endpoints.empty()) {
    return Status::InvalidArgument("query session has no endpoints");
  }
  for (const std::string& uri : options_.endpoints) {
    Result<ShardEndpoint> parsed = ParseShardEndpoint(uri);
    if (!parsed.ok()) return parsed.status();
    // local: and thread: shards are one writer session each, with no
    // listener for a reader to dial.
    if (parsed.value().kind != ShardEndpoint::Kind::kTcp) {
      return Status::InvalidArgument(
          "query sessions dial listeners, not " +
          parsed.value().ToString() + " endpoints (" + uri + ")");
    }
    auto conn = std::make_unique<TcpShardTransport>(
        std::move(parsed).value(), options_.auth_secret,
        ShardSessionRole::kReader);
    Status s = conn->Connect();
    if (!s.ok()) return s;
    // The handshake ran under (and then cleared) its own deadline; from
    // here on every receive runs under the session's. Armed once — an
    // OS-level socket timeout, so a silent listener costs one deadline,
    // not an eternal block.
    if (options_.receive_deadline_seconds > 0) {
      SetShardSocketTimeout(conn->fd(), options_.receive_deadline_seconds);
    }
    conns_.push_back(std::move(conn));
    conn_alive_.push_back(true);
    conn_shard_ids_.push_back(-1);
  }
  return Status::Ok();
}

Status QuerySession::ReadPositions(std::vector<ShardStatsEx>* stats) {
  stats->clear();
  stats->resize(conns_.size());
  std::vector<bool> sent(conns_.size(), false);
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (!conn_alive_[i]) continue;
    Status s =
        SendFrame(conns_[i]->fd(), ShardMessageType::kStatsEx, nullptr, 0);
    if (s.ok()) {
      sent[i] = true;
    } else {
      conn_alive_[i] = false;
      conn_error_ = s;
    }
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (!sent[i]) continue;
    bool in_sync = false;
    Status s = RecvReply(conns_[i]->fd(), ShardMessageType::kStatsReply,
                         &reply_buf_, &in_sync);
    if (s.ok()) {
      s = DecodeShardStatsEx(reply_buf_.payload.data(),
                             reply_buf_.payload.size(), &(*stats)[i]);
    }
    if (!s.ok()) {
      // Transport loss, a deadline expiry, or a garbled payload: the
      // request/reply stream is unrecoverable either way (a late reply
      // would answer the wrong request), so the connection is done.
      conn_alive_[i] = false;
      conn_error_ = s;
      continue;
    }
    conn_shard_ids_[i] = static_cast<int>((*stats)[i].shard_id);
  }
  for (const bool alive : conn_alive_) {
    if (alive) return Status::Ok();
  }
  return conn_error_.ok()
             ? Status::FailedPrecondition("query session not connected")
             : conn_error_;
}

Status QuerySession::BuildView(const std::vector<ShardStatsEx>& stats,
                               PositionView* view) {
  *view = PositionView();
  size_t first = conns_.size();
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conn_alive_[i]) {
      first = i;
      break;
    }
  }
  // ReadPositions already failed the sweep if nothing was alive.
  view->epoch = stats[first].epoch;
  view->params.num_nodes = stats[first].num_nodes;
  view->params.seed = stats[first].seed;
  view->params.cols = stats[first].cols;
  view->params.rounds = stats[first].rounds;
  const uint32_t replication = stats[first].replication;
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (!conn_alive_[i]) continue;
    const ShardStatsEx& st = stats[i];
    if (st.num_nodes != view->params.num_nodes ||
        st.seed != view->params.seed || st.cols != view->params.cols ||
        st.rounds != view->params.rounds) {
      return Status::FailedPrecondition(
          "shard listeners disagree on sketch geometry; these "
          "endpoints are not one cluster");
    }
    if (st.replication != replication) {
      return Status::FailedPrecondition(
          "shard listeners disagree on the replication factor; these "
          "endpoints are not one cluster");
    }
    if (st.epoch != view->epoch) view->skew = true;
    view->groups[static_cast<int>(st.shard_id)].push_back(i);
  }
  for (const auto& [shard, members] : view->groups) {
    if (members.size() > replication) {
      // A deployment mistake — two listeners told to host the same
      // shard — not a moving position. With no replication the classic
      // message; with it, the group exceeded the advertised factor.
      if (replication <= 1) {
        return Status::FailedPrecondition(
            "two endpoints serve shard id " + std::to_string(shard) +
            "; each listener must host a distinct shard");
      }
      return Status::FailedPrecondition(
          std::to_string(members.size()) + " endpoints serve shard id " +
          std::to_string(shard) + " but the cluster replicates " +
          std::to_string(replication) + " ways");
    }
    // Replicas of one shard are bitwise-equal AT ONE POSITION; an
    // update fan-out or repair caught mid-flight makes them disagree
    // transiently. Skew, like an epoch straddle — never an error.
    const ShardStatsEx& lead = stats[members[0]];
    for (const size_t m : members) {
      if (stats[m].num_updates != lead.num_updates ||
          stats[m].delta_seq != lead.delta_seq) {
        view->skew = true;
      }
    }
    ShardWatermark mark;
    mark.num_updates = lead.num_updates;
    mark.delta_seq = lead.delta_seq;
    view->marks.emplace(shard, mark);
    view->total_updates += lead.num_updates;
  }
  // Coverage: a dead connection is survivable only if some live replica
  // still serves its shard. A dead conn that never reported a shard id
  // might have been the only one serving it — the saved transport
  // error, not a silently smaller cluster, is the answer.
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conn_alive_[i]) continue;
    if (conn_shard_ids_[i] < 0 ||
        view->groups.find(conn_shard_ids_[i]) == view->groups.end()) {
      return conn_error_;
    }
  }
  return Status::Ok();
}

Status QuerySession::SendPull(size_t conn,
                              const std::vector<uint8_t>& request) {
  const Status s =
      SendFrame(conns_[conn]->fd(), ShardMessageType::kMigrateExtract,
                request.data(), request.size());
  if (!s.ok()) {
    conn_alive_[conn] = false;
    conn_error_ = s;
  }
  return s;
}

Status QuerySession::RecvPull(size_t conn, ShardFrame* frame) {
  bool in_sync = false;
  const Status s = RecvReply(conns_[conn]->fd(),
                             ShardMessageType::kMigrateData, frame, &in_sync);
  if (!s.ok() && !in_sync) {
    conn_alive_[conn] = false;
    conn_error_ = s;
  }
  return s;
}

Status QuerySession::StagePulls(const PositionView& view,
                                const std::vector<int>& plan, bool* retry) {
  *retry = false;
  std::vector<const std::vector<size_t>*> groups;
  for (const int shard : plan) {
    const auto group = view.groups.find(shard);
    if (group == view.groups.end()) {
      return Status::Internal("planned pull for an unknown shard id");
    }
    groups.push_back(&group->second);
  }
  const uint64_t num_nodes = view.params.num_nodes;
  const uint64_t step =
      options_.nodes_per_chunk == 0 ? num_nodes : options_.nodes_per_chunk;
  // Per planned shard: the group index of the replica its request went
  // to (group size = none took it), and the last send failure.
  std::vector<size_t> sent(plan.size());
  std::vector<Status> send_error(plan.size());
  for (uint64_t lo = 0; lo < num_nodes; lo += step) {
    const uint64_t hi = std::min(num_nodes, lo + step);
    const std::vector<uint8_t> request = EncodeMigrateExtract(lo, hi);
    // Every request out before any reply is read: the shards serialize
    // their ranges while earlier replies are still being received.
    for (size_t p = 0; p < plan.size(); ++p) {
      const std::vector<size_t>& group = *groups[p];
      sent[p] = group.size();
      send_error[p] = Status::Ok();
      for (size_t k = 0; k < group.size(); ++k) {
        if (!conn_alive_[group[k]]) continue;
        send_error[p] = SendPull(group[k], request);
        if (send_error[p].ok()) {
          sent[p] = k;
          break;
        }
      }
    }
    Status fatal = Status::Ok();
    Status again = Status::Ok();
    for (size_t p = 0; p < plan.size(); ++p) {
      const std::vector<size_t>& group = *groups[p];
      ShardFrame* frame = &frames_[{plan[p], lo}];
      Status s = send_error[p];
      bool pulled = false;
      if (sent[p] < group.size()) {
        s = RecvPull(group[sent[p]], frame);
        pulled = s.ok();
      }
      // Fail over past a replica that could not answer, one request at
      // a time: nothing else is outstanding on this shard's replicas.
      // "Shard not configured" (a writer bounce mid-stage) is every
      // replica's answer, so it ends the search.
      for (size_t k = sent[p] + 1;
           !pulled && s.code() != StatusCode::kFailedPrecondition &&
           k < group.size();
           ++k) {
        if (!conn_alive_[group[k]]) continue;
        s = SendPull(group[k], request);
        if (s.ok()) s = RecvPull(group[k], frame);
        pulled = s.ok();
      }
      if (pulled) continue;
      if (s.ok() || s.code() == StatusCode::kFailedPrecondition) {
        // The writer bounced, or the shard's last replica died earlier
        // in the stage: the position will have moved or the alive-set
        // changed, so the round retries (and the next round's coverage
        // check surfaces an uncovered shard).
        if (!*retry) again = s.ok() ? conn_error_ : s;
        *retry = true;
      } else if (fatal.ok()) {
        fatal = s;
      }
    }
    if (!fatal.ok()) {
      *retry = false;
      return fatal;
    }
    if (*retry) return again;
  }
  return Status::Ok();
}

Status QuerySession::Snapshot(const GraphSnapshot** out) {
  if (conns_.empty()) {
    return Status::FailedPrecondition("query session not connected");
  }
  last_refresh_rounds_ = 0;
  Status last = Status::Ok();
  std::vector<ShardStatsEx> t0, t1;
  for (int attempt = 0; attempt < options_.max_position_retries;
       ++attempt) {
    ++last_refresh_rounds_;
    Status s = ReadPositions(&t0);
    if (!s.ok()) return s;
    const std::vector<bool> alive0 = conn_alive_;
    // One cluster position: every shard at the same epoch and geometry,
    // replicas in agreement. Skew is a broadcast or fan-out caught
    // mid-flight — a moving position, so retry.
    PositionView view;
    s = BuildView(t0, &view);
    if (!s.ok()) return s;
    if (view.skew) {
      last = Status::FailedPrecondition(
          "shards straddle a routing-epoch broadcast");
      continue;
    }
    if (cache_.Fresh(view.epoch, view.marks)) {
      *out = &cache_.merged();
      return Status::Ok();
    }
    // Pre-stage every pull the refresh will make, THEN re-read the
    // positions: only if nothing moved do the staged bytes enter the
    // cache. (Staging everything first is what makes the t0 == t1
    // check meaningful — a pull after the check would be unverified.)
    // Each chunk comes from any live replica of its shard: replicas
    // are bitwise-equal at the position t0 == t1 certifies, so the
    // pull fails over past a replica that dies mid-stage.
    const std::vector<int> plan = cache_.PlannedPulls(view.epoch, view.marks);
    for (auto it = frames_.begin(); it != frames_.end();) {
      // Frames of shards that left the cluster are never read again.
      it = view.marks.count(it->first.first) > 0 ? std::next(it)
                                                 : frames_.erase(it);
    }
    bool retry = false;
    s = StagePulls(view, plan, &retry);
    if (retry) {
      last = s;
      continue;
    }
    if (!s.ok()) return s;
    s = ReadPositions(&t1);
    if (!s.ok()) return s;
    if (!SamePosition(t0, alive0, t1, conn_alive_)) {
      last = Status::FailedPrecondition(
          "cluster position moved during the refresh");
      continue;
    }
    // The cache folds the staged frames in place; they stay here for the
    // next refresh to receive into.
    s = cache_.Refresh(
        view.epoch, view.marks, view.total_updates, view.params,
        [this, &plan](int shard, uint64_t lo, uint64_t hi,
                      const uint8_t** data, size_t* size) {
          (void)hi;
          const auto it = frames_.find({shard, lo});
          if (it == frames_.end() ||
              !std::binary_search(plan.begin(), plan.end(), shard)) {
            // A cold rebuild wanted a chunk the plan did not stage
            // (cache was valid, then a geometry-level invalidation
            // struck mid-round). Refresh invalidates on this error, so
            // the NEXT round plans — and stages — every shard.
            return Status::Internal("refresh chunk was not pre-staged");
          }
          *data = it->second.payload.data();
          *size = it->second.payload.size();
          return Status::Ok();
        });
    if (!s.ok()) {
      last = s;
      continue;
    }
    *out = &cache_.merged();
    return Status::Ok();
  }
  return Status(StatusCode::kResourceExhausted,
                "cluster position kept moving; refresh did not stabilize "
                "within " +
                    std::to_string(options_.max_position_retries) +
                    " rounds (last: " + last.ToString() + ")");
}

Result<HeavyHitterSketch> QuerySession::HeavyHitters() {
  if (conns_.empty()) {
    return Status::FailedPrecondition("query session not connected");
  }
  // One position sweep builds the replica groups (and verifies
  // coverage); then one kHeavyHitters pull per shard, failing over
  // within the group like a refresh pull does.
  std::vector<ShardStatsEx> stats;
  Status s = ReadPositions(&stats);
  if (!s.ok()) return s;
  PositionView view;
  s = BuildView(stats, &view);
  if (!s.ok()) return s;
  HeavyHitterSketch merged;
  for (const auto& [shard, group] : view.groups) {
    (void)shard;
    bool pulled = false;
    Status err = Status::Ok();
    for (const size_t conn : group) {
      if (!conn_alive_[conn]) continue;
      s = SendFrame(conns_[conn]->fd(), ShardMessageType::kHeavyHitters,
                    nullptr, 0);
      if (!s.ok()) {
        conn_alive_[conn] = false;
        conn_error_ = s;
        err = s;
        continue;
      }
      bool in_sync = false;
      s = RecvReply(conns_[conn]->fd(), ShardMessageType::kHeavyHitterBytes,
                    &reply_buf_, &in_sync);
      if (!s.ok()) {
        if (!in_sync) {
          conn_alive_[conn] = false;
          conn_error_ = s;
          err = s;
          continue;
        }
        // An in-sync kError (tracking disabled, shard diverged) is the
        // same answer every replica would give; report it.
        return s;
      }
      Result<HeavyHitterSketch> hh = HeavyHitterSketch::Deserialize(
          reply_buf_.payload.data(), reply_buf_.payload.size());
      if (!hh.ok()) return hh.status();
      if (!merged.valid()) {
        merged = std::move(hh).value();
      } else {
        Status ms = merged.Merge(hh.value());
        if (!ms.ok()) return ms;
      }
      pulled = true;
      break;
    }
    if (!pulled) return err.ok() ? conn_error_ : err;
  }
  if (!merged.valid()) return Status::Internal("no heavy-hitter replies");
  return merged;
}

Status QuerySession::PollPositions(bool* fresh) {
  *fresh = false;
  if (conns_.empty()) {
    return Status::FailedPrecondition("query session not connected");
  }
  std::vector<ShardStatsEx> stats;
  Status s = ReadPositions(&stats);
  if (!s.ok()) return s;
  // Same validation Snapshot() runs: a configuration error (duplicate
  // shard beyond the replication factor, mixed geometry) is an ERROR
  // here too — reporting it as mere staleness would have a poller
  // serving its stale cache forever, never learning the deployment is
  // broken. Only genuine movement (epoch or replica skew) is stale.
  PositionView view;
  s = BuildView(stats, &view);
  if (!s.ok()) return s;
  if (view.skew) return Status::Ok();  // Mid-flight position = stale.
  *fresh = cache_.Fresh(view.epoch, view.marks);
  return Status::Ok();
}

Result<ConnectivityResult> QuerySession::Connectivity(int threads) {
  const GraphSnapshot* snap = nullptr;
  Status s = Snapshot(&snap);
  if (!s.ok()) return s;
  return gz::Connectivity(*snap, threads);
}

// ---- Standing queries ---------------------------------------------

uint64_t QuerySession::AddStandingQuery(const StandingQuerySpec& spec) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return registry_.Add(spec);
}

bool QuerySession::RemoveStandingQuery(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return registry_.Remove(query_id);
}

uint64_t QuerySession::watch_notifications() const {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return registry_.notifications();
}

uint64_t QuerySession::watch_evaluations() const {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return registry_.evaluations();
}

size_t QuerySession::watch_notify_streams() const {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return notify_conns_.size();
}

Status QuerySession::watch_error() const {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return watch_error_;
}

void QuerySession::OpenNotifyStreams() {
  // Extra reader sessions, one per endpoint, each converted into a
  // notify stream by kSubscribe. Every failure — dial, handshake, a
  // kError refusal (shard not yet configured), a garbled first frame —
  // just drops that stream: the cadence poll still covers its shard,
  // and a subscriber that wants pushes back can re-StartWatch later.
  for (const std::string& uri : options_.endpoints) {
    Result<ShardEndpoint> parsed = ParseShardEndpoint(uri);
    if (!parsed.ok()) continue;
    auto conn = std::make_unique<TcpShardTransport>(
        std::move(parsed).value(), options_.auth_secret,
        ShardSessionRole::kReader);
    if (!conn->Connect().ok()) continue;
    if (options_.receive_deadline_seconds > 0) {
      SetShardSocketTimeout(conn->fd(), options_.receive_deadline_seconds);
    }
    if (!SendFrame(conn->fd(), ShardMessageType::kSubscribe, nullptr, 0)
             .ok()) {
      continue;
    }
    // The 1:1 reply: the initial kNotify (current position), or kError.
    ShardFrame first;
    if (!RecvFrame(conn->fd(), &first).ok() ||
        first.type != ShardMessageType::kNotify) {
      continue;
    }
    std::lock_guard<std::mutex> lock(watch_mu_);
    notify_conns_.push_back(std::move(conn));
  }
}

Status QuerySession::StartWatch(const StandingWatchOptions& options,
                                StandingQueryNotifier notifier) {
  if (watching_.load()) {
    return Status::FailedPrecondition("watch already running");
  }
  if (conns_.empty()) {
    return Status::FailedPrecondition("query session not connected");
  }
  if (options.poll_interval_ms <= 0) {
    return Status::InvalidArgument("poll_interval_ms must be positive");
  }
  if (::pipe(watch_stop_pipe_) != 0) {
    return Status::IoError(std::string("watch stop pipe: ") +
                           std::strerror(errno));
  }
  watch_options_ = options;
  watch_notifier_ = std::move(notifier);
  watch_error_ = Status::Ok();
  watching_.store(true);
  watch_thread_ = std::thread([this] { WatchLoop(); });
  return Status::Ok();
}

void QuerySession::StopWatch() {
  if (!watching_.load()) return;
  const char byte = 'q';
  // A full pipe just means a wake-up is already pending.
  (void)!::write(watch_stop_pipe_[1], &byte, 1);
  watch_thread_.join();
  ::close(watch_stop_pipe_[0]);
  ::close(watch_stop_pipe_[1]);
  watch_stop_pipe_[0] = watch_stop_pipe_[1] = -1;
  std::lock_guard<std::mutex> lock(watch_mu_);
  notify_conns_.clear();
  watching_.store(false);
}

void QuerySession::WatchLoop() {
  if (watch_options_.subscribe) OpenNotifyStreams();
  ShardFrame frame;
  while (true) {
    // Wait for a push, the stop byte, or the fallback cadence. The
    // notify fds are registered alongside the stop pipe so a pushed
    // position change wakes the watcher immediately.
    std::vector<struct pollfd> pfds;
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      pfds.reserve(notify_conns_.size() + 1);
      struct pollfd stop;
      stop.fd = watch_stop_pipe_[0];
      stop.events = POLLIN;
      stop.revents = 0;
      pfds.push_back(stop);
      for (const auto& conn : notify_conns_) {
        struct pollfd p;
        p.fd = conn->fd();
        p.events = POLLIN;
        p.revents = 0;
        pfds.push_back(p);
      }
    }
    const int rc =
        ::poll(pfds.data(), pfds.size(), watch_options_.poll_interval_ms);
    if (rc < 0 && errno != EINTR) return;
    if (pfds[0].revents != 0) return;  // StopWatch.
    if (rc > 0) {
      // Drain one frame per readable stream; anything but a clean
      // kNotify (EOF, transport error, a stray frame type) retires the
      // stream — the cadence poll takes over for its shard.
      std::lock_guard<std::mutex> lock(watch_mu_);
      size_t conn_idx = 0;
      for (size_t i = 1; i < pfds.size(); ++i, ++conn_idx) {
        if (pfds[i].revents == 0) continue;
        // pfds[i] was built from notify_conns_ under the same mutex and
        // streams are only ever retired here, so indices still line up.
        const Status s =
            RecvFrame(notify_conns_[conn_idx]->fd(), &frame);
        if (!s.ok() || frame.type != ShardMessageType::kNotify) {
          notify_conns_.erase(notify_conns_.begin() + conn_idx);
          --conn_idx;
          continue;
        }
      }
    }
    WatchEvaluate();
  }
}

void QuerySession::WatchEvaluate() {
  std::lock_guard<std::mutex> lock(watch_mu_);
  if (registry_.size() == 0) return;
  // Probe first: a fresh position with nothing newly registered means
  // no fold and no pulls this cycle. (Snapshot() would conclude the
  // same, but the probe makes the steady-state cost of an idle watch
  // exactly one STATS_EX sweep per wake-up.)
  bool fresh = false;
  Status s = PollPositions(&fresh);
  if (!s.ok()) {
    watch_error_ = s;
    return;
  }
  if (fresh && !registry_.HasUnevaluated()) return;
  const GraphSnapshot* snap = nullptr;
  s = Snapshot(&snap);
  if (!s.ok()) {
    // Transient by design: a mid-reshard refresh that kept moving, or
    // a shard waiting on failover. The watch keeps running; the next
    // wake-up retries.
    watch_error_ = s;
    return;
  }
  const Result<size_t> fired = registry_.Evaluate(
      *snap, cache_.epoch(), watch_options_.threads, watch_notifier_);
  watch_error_ = fired.ok() ? Status::Ok() : fired.status();
}

}  // namespace gz
