#include "distributed/shard_server.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <poll.h>
#include <unistd.h>

#include "core/graph_snapshot.h"

namespace gz {
namespace {

// fwrite/fread sinks for the checkpoint file forms.
Status WriteTo(FILE* f, const void* data, size_t size,
               const std::string& path) {
  if (std::fwrite(data, 1, size, f) != size) {
    return Status::IoError("short write to shard checkpoint: " + path);
  }
  return Status::Ok();
}

void EncodeCheckpointHeader(const ShardCheckpointHeader& header,
                            uint8_t out[ShardCheckpointHeader::kBytes]) {
  std::memcpy(out, ShardCheckpointHeader::kMagic, 8);
  std::memcpy(out + 8, &header.epoch, 8);
  std::memcpy(out + 16, &header.delta_seq, 8);
}

Status DecodeCheckpointHeader(
    const uint8_t in[ShardCheckpointHeader::kBytes],
    ShardCheckpointHeader* header) {
  if (std::memcmp(in, ShardCheckpointHeader::kMagic, 8) != 0) {
    return Status::InvalidArgument("not a shard checkpoint: bad magic");
  }
  std::memcpy(&header->epoch, in + 8, 8);
  std::memcpy(&header->delta_seq, in + 16, 8);
  return Status::Ok();
}

// The extended-stats payload; caller holds the instance mutex.
std::vector<uint8_t> BuildStatsEx(const ShardInstanceState& state) {
  ShardStatsEx stats;
  stats.shard_id = state.shard_id;
  stats.epoch = state.table.epoch;
  stats.num_updates = state.gz->num_updates_ingested();
  stats.delta_seq = state.delta_seq;
  stats.ram_bytes = state.gz->RamByteSize();
  const NodeSketchParams params = state.gz->sketch_params();
  stats.num_nodes = params.num_nodes;
  stats.seed = params.seed;
  stats.cols = params.cols;
  stats.rounds = params.rounds;
  stats.replication = state.table.replication;
  return EncodeShardStatsEx(stats);
}

}  // namespace

class ShardServer::ReplySink {
 public:
  // Streams every reply straight to `fd`.
  explicit ReplySink(int fd) : fd_(fd) {}
  // Gathers the reply into `buffer`, whose capacity carries over.
  explicit ReplySink(std::vector<uint8_t>* buffer) : buffer_(buffer) {}

  // A whole reply at once.
  Status Reply(ShardMessageType type, const std::vector<uint8_t>& payload) {
    type_ = type;
    if (buffer_ == nullptr) {
      return SendFrame(fd_, type, payload.data(), payload.size());
    }
    buffer_->assign(payload.begin(), payload.end());
    return Status::Ok();
  }
  Status Error(const Status& error) {
    return Reply(ShardMessageType::kError, EncodeShardError(error));
  }

  // A reply of `payload_bytes` known up front, produced by Write()
  // pieces and closed by End(). The frame checksum accumulates
  // alongside a socket stream.
  Status Begin(ShardMessageType type, uint64_t payload_bytes) {
    type_ = type;
    if (buffer_ == nullptr) {
      return SendFrameHeader(fd_, type, payload_bytes, &crc_);
    }
    buffer_->clear();
    buffer_->reserve(payload_bytes);
    return Status::Ok();
  }
  Status Write(const void* data, size_t size) {
    if (buffer_ == nullptr) {
      crc_.Fold(data, size);
      return WriteFull(fd_, data, size);
    }
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buffer_->insert(buffer_->end(), p, p + size);
    return Status::Ok();
  }
  Status End() {
    return buffer_ == nullptr ? SendFrameTrailer(fd_, crc_) : Status::Ok();
  }
  // The producer of a begun reply failed: a gathered reply becomes the
  // kError, while a half-streamed frame has lost framing for good.
  Status Abort(const Status& error) {
    return buffer_ == nullptr ? error : Error(error);
  }

  // Type of the last reply (what a gathered one is sent as).
  ShardMessageType type() const { return type_; }

 private:
  int fd_ = -1;
  std::vector<uint8_t>* buffer_ = nullptr;
  ShardMessageType type_ = ShardMessageType::kError;
  FrameCrc crc_;
};

Status ShardServer::ReplyAck(uint64_t value0, uint64_t value1) {
  ShardAck ack;
  ack.value0 = value0;
  ack.value1 = value1;
  const std::vector<uint8_t> payload = EncodeShardAck(ack);
  return SendFrame(fd_, ShardMessageType::kAck, payload.data(),
                   payload.size());
}

Status ShardServer::ReplyError(const Status& error) {
  const std::vector<uint8_t> payload = EncodeShardError(error);
  return SendFrame(fd_, ShardMessageType::kError, payload.data(),
                   payload.size());
}

Status ShardServer::HandleConfig(const ShardFrame& frame) {
  if (state_->gz != nullptr) {
    return ReplyError(Status::FailedPrecondition("shard already configured"));
  }
  ShardConfig sc;
  Status s = DecodeShardConfig(frame.payload.data(), frame.payload.size(),
                               &sc);
  if (!s.ok()) return ReplyError(s);
  auto gz = std::make_unique<GraphZeppelin>(sc.config);
  s = gz->Init();
  if (!s.ok()) return ReplyError(s);
  uint64_t delta_seq = 0;
  if (!sc.restore_checkpoint.empty()) {
    // The checkpoint's own epoch gates the restore: state saved under
    // epoch E folded back under an OLDER table would silently disagree
    // with the coordinator about every placement since E — that is an
    // inconsistent hand-off, not a recovery.
    FILE* f = std::fopen(sc.restore_checkpoint.c_str(), "rb");
    if (f == nullptr) {
      return ReplyError(Status::NotFound("cannot open shard checkpoint: " +
                                         sc.restore_checkpoint));
    }
    uint8_t header_buf[ShardCheckpointHeader::kBytes];
    if (std::fread(header_buf, 1, sizeof(header_buf), f) !=
        sizeof(header_buf)) {
      std::fclose(f);
      return ReplyError(Status::InvalidArgument(
          "truncated shard checkpoint header: " + sc.restore_checkpoint));
    }
    std::fclose(f);
    ShardCheckpointHeader header;
    s = DecodeCheckpointHeader(header_buf, &header);
    if (!s.ok()) return ReplyError(s);
    if (header.epoch > sc.table.epoch) {
      return ReplyError(Status::FailedPrecondition(
          "checkpoint epoch " + std::to_string(header.epoch) +
          " is newer than the config's routing epoch " +
          std::to_string(sc.table.epoch) +
          "; refusing an inconsistent restore"));
    }
    s = gz->LoadCheckpoint(sc.restore_checkpoint,
                           ShardCheckpointHeader::kBytes);
    if (!s.ok()) return ReplyError(s);
    delta_seq = header.delta_seq;
  }
  state_->gz = std::move(gz);
  state_->shard_id = sc.shard_id;
  state_->table = std::move(sc.table);
  state_->delta_seq = delta_seq;
  state_->NotifyPositionChanged();
  return ReplyAck(state_->gz->num_updates_ingested(), state_->delta_seq);
}

Status ShardServer::HandleUpdateBatch(const ShardFrame& frame) {
  // UPDATE_BATCH is fire-and-forget, so a bad batch must NOT send an
  // unsolicited error reply — the coordinator would read it as the
  // reply to its next request and every reply after would be off by
  // one. Instead the batch is dropped, logged, and the error deferred
  // to the next barrier reply (see Serve()).
  auto defer = [this](Status error) {
    std::fprintf(stderr, "gz_shard: dropped update batch: %s\n",
                 error.ToString().c_str());
    if (state_->async_error.ok()) state_->async_error = std::move(error);
    return Status::Ok();
  };
  if (frame.payload.size() < sizeof(uint64_t) ||
      (frame.payload.size() - sizeof(uint64_t)) % sizeof(GraphUpdate) !=
          0) {
    return defer(Status::InvalidArgument(
        "update batch payload is not an epoch stamp plus a whole number "
        "of updates"));
  }
  uint64_t epoch = 0;
  std::memcpy(&epoch, frame.payload.data(), sizeof(epoch));
  if (epoch != state_->table.epoch) {
    // The stamp proves which table the batch was routed under; any
    // mismatch means coordinator and shard disagree about placement.
    // FIFO framing makes this impossible from a correct coordinator
    // (EPOCH frames precede re-stamped traffic), so a mismatch is a
    // dropped-frame-level fault, handled the same way.
    return defer(Status::InvalidArgument(
        "update batch stamped with routing epoch " + std::to_string(epoch) +
        " but shard is at epoch " + std::to_string(state_->table.epoch)));
  }
  const size_t count =
      (frame.payload.size() - sizeof(uint64_t)) / sizeof(GraphUpdate);
  const GraphUpdate* updates = reinterpret_cast<const GraphUpdate*>(
      frame.payload.data() + sizeof(uint64_t));
  // Validate before ingesting: GraphZeppelin treats a malformed update
  // as a programmer error (GZ_CHECK), but here the bytes came off a
  // socket and must bounce, not abort. Note no per-update ownership
  // check against the table: a replayed batch legitimately lands here
  // even when the CURRENT table routes its edges elsewhere — the
  // coordinator's durability log, not the table, owns placement of
  // already-routed updates.
  const uint64_t n = state_->gz->config().num_nodes;
  for (size_t i = 0; i < count; ++i) {
    const GraphUpdate& u = updates[i];
    if (!(u.edge.u < u.edge.v && u.edge.v < n) ||
        (u.type != UpdateType::kInsert && u.type != UpdateType::kDelete)) {
      return defer(Status::InvalidArgument(
          "update batch contains an out-of-range update"));
    }
  }
  state_->gz->Update(updates, count);
  state_->NotifyPositionChanged();
  return Status::Ok();
}

Status ShardServer::HandleCheckpoint(const ShardFrame& frame) {
  const std::string path(
      reinterpret_cast<const char*>(frame.payload.data()),
      frame.payload.size());
  if (path.empty()) {
    return ReplyError(Status::InvalidArgument("empty checkpoint path"));
  }
  // Write-then-rename: a crash mid-save (this system's whole fault
  // model) must never destroy the previous good checkpoint, which the
  // in-place truncation of a direct save would.
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return ReplyError(Status::IoError("cannot create checkpoint: " + tmp));
  }
  ShardCheckpointHeader header;
  header.epoch = state_->table.epoch;
  header.delta_seq = state_->delta_seq;
  uint8_t header_buf[ShardCheckpointHeader::kBytes];
  EncodeCheckpointHeader(header, header_buf);
  Status s = WriteTo(f, header_buf, sizeof(header_buf), tmp);
  if (s.ok()) {
    s = state_->gz->WriteSnapshotTo(
        [f, &tmp](const void* data, size_t size) {
          return WriteTo(f, data, size, tmp);
        });
  }
  if (std::fclose(f) != 0 && s.ok()) {
    s = Status::IoError("cannot finish checkpoint: " + tmp);
  }
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return ReplyError(s);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return ReplyError(
        Status::IoError("cannot publish checkpoint: " + path));
  }
  return ReplyAck(state_->gz->num_updates_ingested(), state_->delta_seq);
}

Status ShardServer::HandleEpoch(const ShardFrame& frame) {
  RoutingTable table;
  Status s = DecodeRoutingTable(frame.payload.data(), frame.payload.size(),
                                &table);
  if (!s.ok()) return ReplyError(s);
  if (table.epoch < state_->table.epoch) {
    // Epochs only move forward; a regression means a stale coordinator.
    return ReplyError(Status::FailedPrecondition(
        "routing epoch regression: shard at " +
        std::to_string(state_->table.epoch) + ", offered " +
        std::to_string(table.epoch)));
  }
  state_->table = std::move(table);
  state_->NotifyPositionChanged();
  return ReplyAck(state_->gz->num_updates_ingested(), state_->delta_seq);
}

Status ShardServer::HandleMergeDelta(const ShardFrame& frame) {
  Status s = state_->gz->MergeSerializedNodeRange(frame.payload.data(),
                                                  frame.payload.size());
  if (!s.ok()) return ReplyError(s);
  ++state_->delta_seq;
  state_->NotifyPositionChanged();
  return ReplyAck(state_->gz->num_updates_ingested(), state_->delta_seq);
}

Status ShardServer::HandleSyncPosition(const ShardFrame& frame) {
  uint64_t num_updates = 0, delta_seq = 0;
  Status s = DecodeSyncPosition(frame.payload.data(), frame.payload.size(),
                                &num_updates, &delta_seq);
  if (!s.ok()) return ReplyError(s);
  // The coordinator asserts the logical position this shard's
  // (repaired) content represents. Content itself moved via XOR deltas
  // — which carry no counts — so only the bookkeeping changes here.
  state_->gz->SetUpdatesIngested(num_updates);
  state_->delta_seq = delta_seq;
  state_->NotifyPositionChanged();
  return ReplyAck(state_->gz->num_updates_ingested(), state_->delta_seq);
}

Status ShardServer::ServeReadOnly(const ShardFrame& frame,
                                  ReplySink* sink) {
  if (state_->gz == nullptr) {
    return sink->Error(Status::FailedPrecondition("shard not configured"));
  }
  // A diverged shard must neither donate state nor serve stale answers.
  if (!state_->async_error.ok()) return sink->Error(state_->async_error);
  switch (frame.type) {
    case ShardMessageType::kStatsEx:
      return sink->Reply(ShardMessageType::kStatsReply,
                         BuildStatsEx(*state_));
    case ShardMessageType::kHeavyHitters: {
      const HeavyHitterSketch* hh = state_->gz->heavy_hitters();
      if (hh == nullptr) {
        return sink->Error(Status::FailedPrecondition(
            "heavy-hitter tracking disabled (heavy_hitter_width == 0)"));
      }
      return sink->Reply(ShardMessageType::kHeavyHitterBytes,
                         hh->Serialize());
    }
    case ShardMessageType::kMigrateExtract: {
      uint64_t lo = 0, hi = 0;
      Status s = DecodeMigrateExtract(frame.payload.data(),
                                      frame.payload.size(), &lo, &hi);
      if (s.ok() && !(lo < hi && hi <= state_->gz->config().num_nodes)) {
        s = Status::InvalidArgument("migrate-extract range out of bounds");
      }
      if (!s.ok()) return sink->Error(s);
      // Read-only: extraction mutates nothing, so the coordinator can
      // retry it freely after any failure. The flush inside
      // WriteNodeRangeTo guarantees every update framed before this
      // request is inside the extracted bytes. The frame length is
      // known from the params alone, so records flow store -> sink in
      // arena-sized pieces.
      s = sink->Begin(ShardMessageType::kMigrateData,
                      GraphSnapshot::SerializedRangeSizeFor(
                          state_->gz->sketch_params(), lo, hi));
      if (!s.ok()) return s;
      s = state_->gz->WriteNodeRangeTo(
          lo, hi,
          [sink](const void* data, size_t size) {
            return sink->Write(data, size);
          });
      return s.ok() ? sink->End() : sink->Abort(s);
    }
    default:
      return sink->Error(Status::Internal("not a read-only request"));
  }
}

Status ShardServer::ServeReaderFrame(const ShardFrame& frame) {
  // Produce the whole reply under the instance mutex, send it after
  // release: a reader with a full socket buffer must stall on its OWN
  // send deadline, never while holding the lock the writer's ingest
  // path needs. A gathering sink cannot fail, so only the send can.
  ReplySink sink(&reader_reply_);
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    switch (frame.type) {
      case ShardMessageType::kPing:
        (void)sink.Reply(ShardMessageType::kAck, EncodeShardAck(ShardAck{}));
        break;
      case ShardMessageType::kStatsEx:
      case ShardMessageType::kHeavyHitters:
      case ShardMessageType::kMigrateExtract:
        (void)ServeReadOnly(frame, &sink);
        break;
      default:
        // The read-only contract: a reader cannot configure, ingest,
        // migrate state in, checkpoint, or retire the shard. The
        // session survives — a confused client gets errors, not a dead
        // socket.
        (void)sink.Error(Status::FailedPrecondition(
            "read-only session: frame type " +
            std::to_string(static_cast<uint16_t>(frame.type)) +
            " requires the writer session"));
        break;
    }
  }
  return SendFrame(fd_, sink.type(), reader_reply_.data(),
                   reader_reply_.size());
}

Status ShardServer::ServeSubscription(std::vector<uint8_t> last_notified) {
  // Pure server-push from here on. The loop alternates between waiting
  // for a position change (predicate on the change counter — a change
  // that lands between payload build and the next wait is never lost)
  // and pushing the new position. The periodic timeout exists only to
  // run the fd health probe below; an unchanged position never pushes
  // a frame (payload-compare dedupe), so a quiet shard keeps a quiet
  // wire.
  uint64_t seen = 0;
  while (true) {
    std::vector<uint8_t> payload;
    bool winding_down = false;
    {
      std::unique_lock<std::mutex> lock(state_->mutex);
      state_->position_cv.wait_for(
          lock, std::chrono::milliseconds(500), [&] {
            return state_->winding_down || state_->position_changes != seen;
          });
      seen = state_->position_changes;
      winding_down = state_->winding_down;
      // A reset or diverged instance has no position to report; stay
      // subscribed and silent until it is configured again (the next
      // config bumps the counter and the fresh position pushes then).
      if (state_->gz != nullptr && state_->async_error.ok()) {
        payload = BuildStatsEx(*state_);
      }
    }
    if (winding_down) {
      return Status::IoError("listener wind-down ended the subscription");
    }
    // Health probe: a subscriber never legitimately sends after
    // kSubscribe, so ANY inbound event — a stray byte, EOF, a socket
    // error — ends the subscription. This is also how hang-up is
    // detected at all: a push-only loop would otherwise only notice a
    // dead peer on its next (possibly never) send.
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, 0);
    if (rc < 0 && errno != EINTR) {
      return Status::IoError(std::string("subscription poll: ") +
                             std::strerror(errno));
    }
    if (rc > 0 && pfd.revents != 0) {
      return Status::IoError("subscriber hung up or broke the push-only "
                             "contract");
    }
    if (!payload.empty() && payload != last_notified) {
      const Status s = SendFrame(fd_, ShardMessageType::kNotify,
                                 payload.data(), payload.size());
      if (!s.ok()) return s;
      last_notified = std::move(payload);
    }
  }
}

Status ShardServer::Serve() {
  // Authentication gates everything: until the peer proves the shared
  // secret, no frame below — not even a fire-and-forget UPDATE_BATCH —
  // is looked at. ServerHandshake already sent the kError reply.
  if (!handshaken_) {
    const Status hs = ServerHandshake(fd_, auth_secret_, &role_);
    if (!hs.ok()) return hs;
  }
  ShardFrame frame;
  if (role_ == ShardSessionRole::kReader) {
    // Reader sessions live under a per-read deadline: idle waiting
    // happens in poll() — an idle reader keeping its session open is
    // legitimate — but once bytes start flowing, SO_RCVTIMEO bounds
    // every read, so a peer stalled mid-frame errors out within the
    // deadline instead of occupying a session slot forever. Reader
    // *requests* are tiny and fixed-shape, so the handshake-sized
    // receive cap applies for the whole session: a reader can never
    // command a large allocation.
    SetShardSocketTimeout(fd_, reader_timeout_seconds_);
    while (true) {
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      if (::poll(&pfd, 1, -1) < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("reader session poll: ") +
                               std::strerror(errno));
      }
      Status s = RecvFrameCapped(fd_, &frame, kReaderMaxRequestBytes);
      if (!s.ok()) {
        if (s.code() == StatusCode::kInvalidArgument) ReplyError(s);
        return s;
      }
      if (frame.type == ShardMessageType::kSubscribe) {
        // Converts the session into a server-push notify stream. The
        // immediate first kNotify is the 1:1 reply to this request;
        // after it the client sends nothing more. An unconfigured or
        // diverged shard refuses (kError) and the session continues as
        // a plain reader — the subscriber can retry later.
        std::vector<uint8_t> payload;
        Status refuse = Status::Ok();
        {
          std::lock_guard<std::mutex> lock(state_->mutex);
          if (state_->gz == nullptr) {
            refuse = Status::FailedPrecondition("shard not configured");
          } else if (!state_->async_error.ok()) {
            refuse = state_->async_error;
          } else {
            payload = BuildStatsEx(*state_);
          }
        }
        if (!refuse.ok()) {
          s = ReplyError(refuse);
          if (!s.ok()) return s;
          continue;
        }
        s = SendFrame(fd_, ShardMessageType::kNotify, payload.data(),
                      payload.size());
        if (!s.ok()) return s;
        return ServeSubscription(std::move(payload));
      }
      s = ServeReaderFrame(frame);
      if (!s.ok()) return s;
    }
  }
  while (true) {
    Status s = RecvFrame(fd_, &frame);
    if (!s.ok()) {
      // Framing is gone (bad header / checksum) or the coordinator
      // hung up. Best-effort error reply, then stop; the reply can
      // only reach a peer that still shares framing, but costs nothing
      // to try.
      if (s.code() == StatusCode::kInvalidArgument) ReplyError(s);
      return s;
    }
    // Everything below touches the shared instance; reader sessions on
    // a listener observe it between these critical sections.
    std::lock_guard<std::mutex> lock(state_->mutex);
    // Handshake frames are single-use; one arriving mid-session is a
    // request/reply violation from a confused peer.
    if (frame.type == ShardMessageType::kHello ||
        frame.type == ShardMessageType::kChallenge ||
        frame.type == ShardMessageType::kAuth) {
      s = ReplyError(Status::InvalidArgument(
          "handshake frame after session establishment"));
      if (!s.ok()) return s;
      continue;
    }
    // Every request except the config itself needs a configured shard.
    if (state_->gz == nullptr && frame.type != ShardMessageType::kConfig &&
        frame.type != ShardMessageType::kPing &&
        frame.type != ShardMessageType::kShutdown) {
      // Fire-and-forget requests must not draw an unsolicited reply
      // even here — defer, like every other UPDATE_BATCH problem.
      if (frame.type == ShardMessageType::kUpdateBatch) {
        std::fprintf(stderr,
                     "gz_shard: dropped update batch: shard not "
                     "configured\n");
        if (state_->async_error.ok()) {
          state_->async_error =
              Status::FailedPrecondition("shard not configured");
        }
        continue;
      }
      s = ReplyError(Status::FailedPrecondition("shard not configured"));
      if (!s.ok()) return s;
      continue;
    }
    // A deferred UPDATE_BATCH failure surfaces as the reply to every
    // barrier from here on: a dropped batch means this shard's state
    // has PERMANENTLY diverged from the stream, and the only repair is
    // a restart + replay. The error is sticky on purpose — if one
    // barrier consumed it, a retried CHECKPOINT would succeed, the
    // coordinator would truncate its unacked log (the only copy of the
    // dropped updates), and the divergence would become silently
    // unrecoverable. Migration frames are gated too, and so are the
    // read-only ones (inside ServeReadOnly): a diverged shard must
    // neither donate state nor serve stale watermarks.
    if (!state_->async_error.ok() &&
        (frame.type == ShardMessageType::kFlush ||
         frame.type == ShardMessageType::kCheckpoint ||
         frame.type == ShardMessageType::kEpoch ||
         frame.type == ShardMessageType::kMergeDelta ||
         frame.type == ShardMessageType::kSyncPosition)) {
      s = ReplyError(state_->async_error);
      if (!s.ok()) return s;
      continue;
    }
    switch (frame.type) {
      case ShardMessageType::kConfig:
        s = HandleConfig(frame);
        break;
      case ShardMessageType::kUpdateBatch:
        s = HandleUpdateBatch(frame);
        break;
      case ShardMessageType::kFlush:
        state_->gz->Flush();
        s = ReplyAck(state_->gz->num_updates_ingested());
        break;
      case ShardMessageType::kCheckpoint:
        s = HandleCheckpoint(frame);
        break;
      case ShardMessageType::kStatsEx:
      case ShardMessageType::kHeavyHitters:
      case ShardMessageType::kMigrateExtract: {
        ReplySink sink(fd_);
        s = ServeReadOnly(frame, &sink);
        break;
      }
      case ShardMessageType::kPing:
        s = ReplyAck(0);
        break;
      case ShardMessageType::kEpoch:
        s = HandleEpoch(frame);
        break;
      case ShardMessageType::kMergeDelta:
        s = HandleMergeDelta(frame);
        break;
      case ShardMessageType::kSyncPosition:
        s = HandleSyncPosition(frame);
        break;
      case ShardMessageType::kSubscribe:
        // Subscriptions are a reader-session feature: converting the
        // writer's request/reply stream into a push stream would strand
        // the coordinator.
        s = ReplyError(Status::FailedPrecondition(
            "subscriptions require a reader session"));
        break;
      case ShardMessageType::kShutdown:
        // Ack first so the coordinator can reap without racing the exit.
        ReplyAck(state_->gz != nullptr ? state_->gz->num_updates_ingested()
                                       : 0);
        return Status::Ok();
      default:
        // Reply frames are never valid requests.
        s = ReplyError(Status::InvalidArgument(
            "unexpected reply-type frame on the request stream"));
        break;
    }
    if (!s.ok()) return s;  // Reply write failed: connection dead.
  }
}

}  // namespace gz
