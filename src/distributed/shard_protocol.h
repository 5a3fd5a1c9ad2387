// Wire protocol between the ShardCluster coordinator and gz_shard
// worker processes: length-prefixed binary frames over any stream
// socket — a socketpair to a forked child or a TCP connection to a
// `gz_shard --listen` on another machine (see shard_endpoint.h /
// shard_transport.h). The coordinator and server state machines never
// learn where the bytes come from; everything transport-specific —
// framing integrity, peer authentication — lives here.
//
// Frame (v3) = 16-byte header (magic, version, message type, payload
// bytes) + payload + a 4-byte CRC32C trailer over header AND payload.
// The receiver verifies the checksum before any payload decode; a
// mismatch is a Status error and, because the stream can no longer be
// trusted byte-for-byte, the connection is fenced. Updates travel as
// flat GraphUpdate slabs — the exact in-memory layout the PR 1
// pooled-batch pipeline routes, so the coordinator frames a routing
// buffer with scatter-gather I/O and never copies it — and sketch state
// travels in one format only, the GraphSnapshot node-range delta: a
// whole-graph read is the range [0, num_nodes).
//
// Sessions open with a challenge–response HELLO handshake keyed by a
// shared secret (HMAC-SHA256 over fresh nonces, mutual): an untrusted
// network cannot inject UPDATE_BATCHes, and a coordinator cannot be
// fed state by an impostor shard. The handshake runs on every
// connection — an empty secret keeps the frame flow identical for
// trusted socketpairs — and until it completes a server accepts no
// other frame.
//
// Everything here returns Status: a malformed, truncated, corrupted or
// version-mismatched frame is an error on whichever side read it, never
// a crash. Once a header fails validation the byte stream has lost
// framing, so the connection is considered dead.
#ifndef GZ_DISTRIBUTED_SHARD_PROTOCOL_H_
#define GZ_DISTRIBUTED_SHARD_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/graph_zeppelin.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

// GraphUpdate slabs cross the process boundary as raw bytes; pin the
// layout the two sides must agree on.
static_assert(sizeof(GraphUpdate) == 12, "wire layout of GraphUpdate");

enum class ShardMessageType : uint16_t {
  // Coordinator -> shard.
  kConfig = 1,       // Config payload; shard Init()s (+ checkpoint restore).
  kUpdateBatch = 2,  // u64 routing epoch + flat GraphUpdate slab.
                     // Fire-and-forget (no reply).
  kFlush = 3,        // Drain gutters + workers.
  // 4 and 6 are retired request numbers, never to be reused; RecvFrame
  // rejects them. A whole-graph read is kMigrateExtract over
  // [0, num_nodes).
  kCheckpoint = 5,   // Payload: file path. Shard saves a checkpoint.
  kPing = 7,         // Health probe.
  kShutdown = 8,     // Orderly exit; shard acks, then terminates.
  // Shard -> coordinator.
  kAck = 9,    // Two u64 values; meaning depends on the request.
  // 10 is a retired reply number, rejected like 4 and 6.
  kError = 11,  // u32 StatusCode + message string.
  // Elastic resharding (coordinator -> shard, except kMigrateData).
  kEpoch = 12,           // RoutingTable payload; shard adopts the new
                         // epoch. Reply: kAck{num_updates, delta_seq}.
  kMigrateExtract = 13,  // Two u64s [lo, hi): serialize that node range
                         // of the shard's state. Reply: kMigrateData.
  kMergeDelta = 14,      // Node-range delta payload; shard XOR-folds it
                         // in. Reply: kAck{num_updates, delta_seq}.
  kMigrateData = 15,     // Shard -> coordinator: serialized node-range
                         // delta (GraphSnapshot range format).
  // Handshake (first frames on every connection; see Client/Server
  // Handshake below).
  kHello = 16,      // Client -> shard: 16-byte client nonce, optionally
                    // followed by one role byte (absent = writer; see
                    // ShardSessionRole below).
  kChallenge = 17,  // Shard -> client: 16-byte server nonce +
                    // 32-byte server proof.
  kAuth = 18,       // Client -> shard: 32-byte client proof.
                    // Reply: kAck on success, kError on mismatch.
  // Serving tier (any session -> shard).
  kStatsEx = 19,    // Empty payload. Reply: kStatsReply — the shard's
                    // position, RAM and geometry (the snapshot cache
                    // keys on the position).
  kStatsReply = 20,  // Shard -> client: ShardStatsEx payload.
  // Replication (coordinator -> shard, writer session only).
  kSyncPosition = 21,  // Two u64s {num_updates, delta_seq}: the
                       // coordinator asserts the shard's logical
                       // position after an anti-entropy repair, so a
                       // rejoined replica's watermark matches its
                       // (repaired) content. Reply: kAck.
  // Standing queries (reader session only).
  kSubscribe = 22,  // Empty payload. Converts the reader session into a
                    // server-push notify stream: the shard replies with
                    // one immediate kNotify (the current position) and
                    // from then on pushes a kNotify whenever the
                    // shard's serving position changes (coalesced — a
                    // burst of changes may yield one frame carrying the
                    // latest position). The client sends nothing more
                    // on the connection; any byte it does send (or its
                    // EOF) ends the subscription. On a writer session,
                    // or on an unconfigured/diverged shard, the reply
                    // is kError and the session continues unconverted.
  kNotify = 23,     // Shard -> subscriber: ShardStatsEx payload, the
                    // position that changed. Never a valid request.
  // Heavy hitters (any session -> shard).
  kHeavyHitters = 24,  // Empty payload. Reply: kHeavyHitterBytes with
                       // the shard's serialized HeavyHitterSketch
                       // (workloads/count_min.h), or kError when the
                       // shard was configured with tracking off
                       // (heavy_hitter_width == 0).
  kHeavyHitterBytes = 25,  // Shard -> client: HeavyHitterSketch::
                           // Serialize payload. Linear, so the
                           // coordinator sum-merges per-shard replies
                           // into the exact whole-stream sketch.
};

// Session role, declared in the HELLO frame and bound into the
// handshake proofs (distinct HMAC domains per role, so a flipped role
// byte fails authentication rather than silently escalating). A writer
// session is the coordinator: full protocol, its disconnect discards
// the shard instance. A reader session may only observe — kPing /
// kStatsEx / kMigrateExtract / kHeavyHitters — and its disconnect
// never touches the instance.
enum class ShardSessionRole : uint8_t {
  kWriter = 0,
  kReader = 1,
};

struct ShardFrameHeader {
  static constexpr uint32_t kMagic = 0x50535A47;  // "GZSP" little-endian.
  static constexpr uint16_t kVersion = 3;  // v3: CRC32C trailer + auth.
  static constexpr size_t kBytes = 16;
  // CRC32C over header + payload, appended after the payload.
  static constexpr size_t kCrcBytes = 4;
  // Caps a garbage length field. Sized for legitimate big snapshots,
  // so it does not alone bound allocations — RecvFrame additionally
  // converts an allocation failure into a Status instead of letting
  // bad_alloc terminate the process.
  static constexpr uint64_t kMaxPayloadBytes = 1ULL << 33;

  ShardMessageType type = ShardMessageType::kPing;
  uint64_t payload_bytes = 0;
};

// A received frame; `payload` is reused across RecvFrame calls.
struct ShardFrame {
  ShardMessageType type = ShardMessageType::kPing;
  std::vector<uint8_t> payload;
};

// ---- Frame I/O ------------------------------------------------------------
// All calls handle partial reads/writes and EINTR; writes suppress
// SIGPIPE (a dead peer surfaces as an IoError, not a signal). Every
// send computes and appends the CRC32C trailer; RecvFrame verifies it
// before the payload reaches any decoder.

// Sends one frame: header + optional payload (+ trailer).
Status SendFrame(int fd, ShardMessageType type, const void* payload,
                 size_t payload_bytes);

// Scatter-gather send: header + two payload spans + trailer in one
// sendmsg, so a routing buffer is framed without being copied (span b
// may be empty).
Status SendFrame2(int fd, ShardMessageType type, const void* a,
                  size_t a_bytes, const void* b, size_t b_bytes);

// Running checksum of a streamed frame. SendFrameHeader seeds it with
// the header bytes; the caller folds every payload piece it writes,
// then closes the frame with SendFrameTrailer.
class FrameCrc {
 public:
  void Fold(const void* data, size_t size);
  uint32_t value() const { return crc_; }

 private:
  uint32_t crc_ = 0;
};

// Sends just the header, seeding `crc`; the caller streams
// `payload_bytes` of payload afterwards with WriteFull — folding each
// piece into `crc` — and finishes with SendFrameTrailer (how a shard
// streams a snapshot reply without materializing it).
Status SendFrameHeader(int fd, ShardMessageType type, uint64_t payload_bytes,
                       FrameCrc* crc);
Status SendFrameTrailer(int fd, const FrameCrc& crc);

// Receives one frame into `frame` (payload buffer reused). Fails with
// InvalidArgument on bad magic / version / unknown or retired type /
// oversized length / checksum mismatch — all before any payload
// decode — and IoError on EOF or a truncated payload.
Status RecvFrame(int fd, ShardFrame* frame);

// RecvFrame with an explicit allocation cap, for contexts where the
// peer is not entitled to command a protocol-cap-sized allocation: the
// pre-auth handshake, and reader sessions (whose requests are tiny and
// fixed-shape for their whole lifetime).
Status RecvFrameCapped(int fd, ShardFrame* frame, uint64_t max_payload);

// The reader-session receive cap: every read-only request (PING,
// STATS_EX, MIGRATE_EXTRACT, HEAVY_HITTERS) fits with room to spare.
constexpr uint64_t kReaderMaxRequestBytes = 4096;

// Receives one *reply* frame and classifies it — the one reply-handling
// policy every coordinator-side call site shares. Returns Ok when the
// reply is a well-formed `expected` frame. A well-formed kError reply
// returns the shard's decoded Status with *in_sync = true: the request
// failed but the 1:1 request/reply stream is intact, so the connection
// stays usable. Transport failures, framing errors, malformed error
// payloads and unexpected frame types return with *in_sync = false:
// the connection can no longer be trusted.
Status RecvReply(int fd, ShardMessageType expected, ShardFrame* frame,
                 bool* in_sync);

// Raw full-buffer I/O on the socket (EINTR-safe, SIGPIPE-suppressed).
Status WriteFull(int fd, const void* data, size_t size);
Status ReadFull(int fd, void* data, size_t size);

// Session-socket tuning, applied identically by BOTH ends of a tcp://
// shard link (coordinator transport and listener): TCP_NODELAY (the
// barrier RPCs are latency-bound) and keepalive probes tuned for ~2
// minute detection, so a peer host that vanishes without a FIN cannot
// wedge a blocking read forever. No-op on non-TCP fds.
void TuneShardSocket(int fd);

// Arms SO_RCVTIMEO + SO_SNDTIMEO (seconds) on a session socket; 0
// clears both. Used for the pre-auth handshake deadline and for reader
// sessions' per-read deadline. Fails silently on non-socket fds.
void SetShardSocketTimeout(int fd, int seconds);

// ---- Authenticated handshake ----------------------------------------------
// Challenge–response, mutual, keyed by a shared secret:
//
//   coordinator                          shard
//     HELLO { c = nonce16 }      ──▶
//                                ◀──    CHALLENGE { s = nonce16,
//                                         HMAC(secret, "srv" | c | s) }
//     verify server proof
//     AUTH { HMAC(secret,
//       "cli" | c | s) }         ──▶    verify client proof
//                                ◀──    ACK  (or ERROR + connection end)
//
// Nonces are fresh per connection, so neither proof replays, and the
// proofs bind both nonces, so they cannot be spliced across sessions.
// Both sides run this before any other frame; a server refuses every
// non-handshake frame until its peer has proven the secret.
constexpr size_t kHandshakeNonceBytes = 16;

// Client side: returns Ok once the shard has proven the secret and
// acked ours. FailedPrecondition("authentication failed") on a proof
// mismatch; transport/framing errors pass through. A reader session
// appends its role byte to HELLO and proves under the reader HMAC
// domains; the default (writer) sends the bare 16-byte HELLO every v3
// coordinator already speaks.
Status ClientHandshake(int fd, const std::string& secret,
                       ShardSessionRole role = ShardSessionRole::kWriter);

// Shard side: serves one handshake. Replies kError and returns a
// non-OK status on any deviation — wrong first frame, bad proof —
// after which the caller must drop the connection. On success `*role`
// (when non-null) reports the authenticated session role.
Status ServerHandshake(int fd, const std::string& secret,
                       ShardSessionRole* role = nullptr);

// ---- Routing --------------------------------------------------------------

// The versioned routing table: the edge hash picks one of kNumSlots
// virtual slots (a power of two, so the reduction is a mask — no
// modulo bias for ANY shard count), and the table assigns each slot to
// a shard id. Elastic operations reassign slots and bump the epoch;
// the coordinator owns the table, ships it to shards in CONFIG/EPOCH
// frames, and stamps the epoch on every UPDATE_BATCH so a frame routed
// under a different table is detected, never silently ingested.
struct RoutingTable {
  static constexpr uint32_t kNumSlots = 256;
  // Shard ids are small non-negative integers; this caps what a wire
  // decode accepts (and what any deployment remotely needs).
  static constexpr int32_t kMaxShardId = 4096;
  // Caps the per-slot replica-set size a wire decode accepts.
  static constexpr uint32_t kMaxReplication = 8;

  uint64_t epoch = 0;  // 0 = unset; real tables start at 1.
  std::vector<int32_t> owners;  // kNumSlots entries: slot -> shard id.
  // Every slot's owner is served by `replication` copies: replica r of
  // shard s is the instance at endpoint index s * replication + r, and
  // replica 0 is the primary. 1 = unreplicated (the pre-replication
  // wire form and behavior, bit for bit). The replica set is derived,
  // not stored per slot: all slots of a shard share its replicas, so
  // elastic reassignment (add/split/remove) never touches this field.
  uint32_t replication = 1;

  friend bool operator==(const RoutingTable& a, const RoutingTable& b) {
    return a.epoch == b.epoch && a.owners == b.owners &&
           a.replication == b.replication;
  }
};

// Epoch-1 table for shards {0 .. num_shards-1}: slots dealt round-robin,
// so every shard owns floor or ceil of kNumSlots/num_shards slots.
RoutingTable MakeRoutingTable(int num_shards);

// The slot an edge hashes to; pure in (edge, num_nodes).
uint32_t RouteSlot(const Edge& e, uint64_t num_nodes);

// The shard an update belongs to: a pure function of (edge, table),
// shared by the coordinator, the shards themselves, and any external
// stream partitioner — all parties with the same table agree on every
// placement.
int RouteToShard(const Edge& e, uint64_t num_nodes,
                 const RoutingTable& table);

// Pure rebalance steps; each returns a table with epoch + 1. Together
// they maintain the invariant that EVERY live shard owns at least one
// slot (so the active set always equals TableOwners()): Added requires
// fewer than kNumSlots owners, Split requires the source to own at
// least two slots (checked — the elastic entry points guard both with
// Status errors first), and Removed therefore always finds an heir
// while any other shard remains.
// AddShard: the new shard takes slots from the current largest owners
// until ownership is balanced.
RoutingTable TableWithShardAdded(const RoutingTable& table, int new_shard);
// RemoveShard: the removed shard's slots are dealt to the remaining
// owners, smallest-ownership first.
RoutingTable TableWithShardRemoved(const RoutingTable& table, int removed);
// SplitShard: every second slot of `source` moves to `new_shard`.
RoutingTable TableWithShardSplit(const RoutingTable& table, int source,
                                 int new_shard);
// Slots `shard` owns in `table`; the entry-point guards above use it.
int TableSlotCount(const RoutingTable& table, int shard);
// Distinct shard ids owning at least one slot, ascending.
std::vector<int> TableOwners(const RoutingTable& table);

std::vector<uint8_t> EncodeRoutingTable(const RoutingTable& table);
Status DecodeRoutingTable(const uint8_t* data, size_t size,
                          RoutingTable* out);

// ---- Payload codecs -------------------------------------------------------

// kConfig payload: the shard's GraphZeppelinConfig, its shard id, the
// current routing table, plus an optional checkpoint path to restore
// from before serving.
struct ShardConfig {
  GraphZeppelinConfig config;
  int32_t shard_id = 0;
  RoutingTable table;
  std::string restore_checkpoint;  // Empty = fresh start.
};

std::vector<uint8_t> EncodeShardConfig(const ShardConfig& config);
// Tolerates no trailing garbage; InvalidArgument on any truncation.
Status DecodeShardConfig(const uint8_t* data, size_t size, ShardConfig* out);

// kAck payload: two u64s (request-specific meaning).
struct ShardAck {
  uint64_t value0 = 0;
  uint64_t value1 = 0;
};
std::vector<uint8_t> EncodeShardAck(const ShardAck& ack);
Status DecodeShardAck(const uint8_t* data, size_t size, ShardAck* out);

// kError payload: StatusCode + message, so a shard-side Status crosses
// the socket losslessly.
std::vector<uint8_t> EncodeShardError(const Status& status);
// Returns the *decoded* status (the shard's error); `decode_ok` reports
// whether the payload itself was well-formed.
Status DecodeShardError(const uint8_t* data, size_t size, bool* decode_ok);

// kMigrateExtract payload: the node range [lo, hi) to serialize.
std::vector<uint8_t> EncodeMigrateExtract(uint64_t lo, uint64_t hi);
Status DecodeMigrateExtract(const uint8_t* data, size_t size, uint64_t* lo,
                            uint64_t* hi);

// kSyncPosition payload: the coordinator-asserted logical position
// {num_updates, delta_seq} a repaired replica must report from now on.
std::vector<uint8_t> EncodeSyncPosition(uint64_t num_updates,
                                        uint64_t delta_seq);
Status DecodeSyncPosition(const uint8_t* data, size_t size,
                          uint64_t* num_updates, uint64_t* delta_seq);

// kStatsReply payload: everything a serving-tier client needs to key a
// snapshot cache and build same-params zero snapshots without ever
// having seen the shard's config. (epoch, num_updates, delta_seq) is
// the shard's watermark: num_updates counts ingested stream updates,
// delta_seq counts folded migration deltas — which change sketch
// content without changing the update count, so both are needed.
struct ShardStatsEx {
  int32_t shard_id = 0;
  uint64_t epoch = 0;
  uint64_t num_updates = 0;
  uint64_t delta_seq = 0;
  uint64_t ram_bytes = 0;
  // Sketch geometry (identical across a cluster by construction).
  uint64_t num_nodes = 0;
  uint64_t seed = 0;
  int32_t cols = 0;
  int32_t rounds = 0;
  // The routing table's replica count, so a reader session can group
  // its endpoints into replica sets and fail over within one.
  uint32_t replication = 1;
};
std::vector<uint8_t> EncodeShardStatsEx(const ShardStatsEx& stats);
Status DecodeShardStatsEx(const uint8_t* data, size_t size,
                          ShardStatsEx* out);

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_PROTOCOL_H_
