// Shard-side runtime: owns one GraphZeppelin instance and serves the
// shard protocol over a stream socket until kShutdown or a fatal
// framing error. The gz_shard tool is a thin main() around this class;
// keeping the loop in the library lets conformance tests drive it over
// an in-process socketpair, no fork required.
//
// Sessions come in two roles (see ShardSessionRole): a *writer* — the
// coordinator, full protocol — and *readers*, which may only observe
// (PING / STATS_EX / MIGRATE_EXTRACT / HEAVY_HITTERS; anything else
// draws a kError and the session continues). Both roles serve the three
// read-only requests through one function. One ShardServer serves
// one session; when several sessions share a shard (the multi-session
// listener, shard_listener.h), they share one ShardInstanceState and
// every access to the instance goes through its mutex.
#ifndef GZ_DISTRIBUTED_SHARD_SERVER_H_
#define GZ_DISTRIBUTED_SHARD_SERVER_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/graph_zeppelin.h"
#include "distributed/shard_protocol.h"
#include "util/status.h"

namespace gz {

// Shard checkpoint file: a fixed 24-byte header — magic, the routing
// epoch the shard was at, and its merge-delta sequence number — then
// the standard GraphSnapshot byte stream. The epoch makes a checkpoint
// self-describing across reshard operations (a restore under an OLDER
// coordinator table is refused), and the delta sequence number lets
// the coordinator reconcile which migration deltas the checkpoint
// already covers, exactly as the snapshot's update count reconciles
// the unacked update log.
struct ShardCheckpointHeader {
  static constexpr char kMagic[8] = {'G', 'Z', 'S', 'C', 'K', 'P', '0',
                                     '1'};
  static constexpr size_t kBytes = 24;

  uint64_t epoch = 0;
  uint64_t delta_seq = 0;
};

// The shard instance one or more sessions serve. Sessions lock `mutex`
// around every access; the writer session (or the listener, on writer
// disconnect) is the only party that configures or resets it.
struct ShardInstanceState {
  std::mutex mutex;
  std::unique_ptr<GraphZeppelin> gz;
  int32_t shard_id = -1;
  // The routing table this shard last adopted (CONFIG or EPOCH frame).
  // UPDATE_BATCH frames stamped with any other epoch are dropped: the
  // stamp proves coordinator and shard agree on the table a batch was
  // routed under. (Replayed batches are re-stamped by the coordinator
  // at send time, so a correct coordinator never trips this.)
  RoutingTable table;
  // Count of kMergeDelta frames applied since Init; persisted in the
  // checkpoint header so the coordinator can skip already-covered
  // deltas on restart replay.
  uint64_t delta_seq = 0;
  // A problem in a fire-and-forget UPDATE_BATCH cannot be answered
  // inline — an unsolicited reply would desynchronize the 1:1
  // request/reply stream — so it is recorded here and surfaces as the
  // kError reply to every later barrier (including migration and
  // serving requests: a diverged shard must not donate state or serve
  // stale answers). Sticky: a dropped batch is permanent divergence,
  // curable only by restart + replay.
  Status async_error;
  // Signaled (under `mutex`) on every serving-position change — ingest,
  // delta fold, position sync, epoch adoption, configure, reset — so
  // subscribed reader sessions (kSubscribe) push a kNotify instead of
  // the client polling. `position_changes` counts the signals, letting
  // a subscription wait on a predicate (no change can slip between its
  // payload build and its next wait). Also signaled with
  // `winding_down` set when the listener retires, so subscription
  // loops exit promptly.
  std::condition_variable position_cv;
  uint64_t position_changes = 0;
  bool winding_down = false;

  // Caller holds `mutex`.
  void NotifyPositionChanged() {
    ++position_changes;
    position_cv.notify_all();
  }

  // Back to the unconfigured state — what a writer disconnect on the
  // listener does (the exact state loss of a SIGKILLed local shard).
  // Caller holds `mutex`.
  void Reset() {
    gz.reset();
    shard_id = -1;
    table = RoutingTable();
    delta_seq = 0;
    async_error = Status::Ok();
    NotifyPositionChanged();  // Subscribers must learn of the loss.
  }
};

class ShardServer {
 public:
  // Single-session form: `fd` is the connected coordinator socket (not
  // owned); the instance state lives and dies with this server.
  // `auth_secret` keys the mandatory HELLO handshake — the peer must
  // prove it before any other frame is served ("" = open, for trusted
  // socketpairs).
  explicit ShardServer(int fd, std::string auth_secret = "")
      : fd_(fd),
        auth_secret_(std::move(auth_secret)),
        state_(&owned_state_) {}

  // Multi-session form: serves one session against a shared instance.
  // The caller (shard_listener.cc) has already run the handshake and
  // knows the role; `reader_timeout_seconds` arms the per-read
  // deadline a reader session runs under (a reader stalled mid-frame
  // must not hold its slot forever).
  ShardServer(int fd, ShardInstanceState* state, ShardSessionRole role,
              int reader_timeout_seconds)
      : fd_(fd),
        state_(state),
        role_(role),
        handshaken_(true),
        reader_timeout_seconds_(reader_timeout_seconds) {}

  // Runs the server half of the authenticated handshake (unless the
  // multi-session constructor marked it done), then serves frames until
  // an orderly kShutdown (returns Ok) or the connection dies / loses
  // framing / fails authentication (returns the error). Recoverable
  // request problems — an out-of-range update, a stale-epoch batch, a
  // checkpoint path that cannot be written, a request before kConfig, a
  // write-class frame on a reader session — are answered with a kError
  // frame (or deferred, for fire-and-forget frames) and the loop
  // continues: a bad request must never take the shard down.
  Status Serve();

 private:
  // Where a reply goes: streamed to the socket as it is produced, or
  // gathered into a buffer (see shard_server.cc).
  class ReplySink;

  // Writer-session handlers reply on fd_ and return a non-OK status
  // only when the connection is no longer usable. All of them are
  // called with state_->mutex held.
  Status HandleConfig(const ShardFrame& frame);
  Status HandleUpdateBatch(const ShardFrame& frame);
  Status HandleCheckpoint(const ShardFrame& frame);
  Status HandleEpoch(const ShardFrame& frame);
  Status HandleMergeDelta(const ShardFrame& frame);
  Status HandleSyncPosition(const ShardFrame& frame);

  // The one server of the read-only requests — kStatsEx, kHeavyHitters
  // and kMigrateExtract — on either session: refuses an unconfigured or
  // diverged instance, decodes and validates the request, and produces
  // the reply (or a kError) into `sink`. The writer session streams to
  // the socket, so an out-of-core shard never materializes a range; a
  // reader session gathers into reader_reply_. Caller holds
  // state_->mutex. Non-OK only when the sink's connection is unusable.
  Status ServeReadOnly(const ShardFrame& frame, ReplySink* sink);

  // One reader request: produce the reply under the lock, send it
  // after release (a slow reader must not hold the instance hostage).
  Status ServeReaderFrame(const ShardFrame& frame);

  // The notify stream a reader session becomes after kSubscribe: waits
  // on position_cv, pushes a kNotify whenever the serving position
  // differs from the last pushed one (`last_notified`, seeded with the
  // initial kNotify's payload), and exits when the subscriber hangs up
  // (any inbound byte or EOF), the instance winds down, or a send
  // fails. Never returns Ok — a subscription only ends with the
  // connection.
  Status ServeSubscription(std::vector<uint8_t> last_notified);

  Status ReplyAck(uint64_t value0, uint64_t value1 = 0);
  Status ReplyError(const Status& error);

  int fd_;
  std::string auth_secret_;
  ShardInstanceState owned_state_;  // Backs state_ in single-session form.
  ShardInstanceState* state_;
  ShardSessionRole role_ = ShardSessionRole::kWriter;
  bool handshaken_ = false;
  int reader_timeout_seconds_ = 30;
  // A reader session's reply, reused across its requests so a steady
  // refresh cadence allocates nothing.
  std::vector<uint8_t> reader_reply_;
};

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_SERVER_H_
