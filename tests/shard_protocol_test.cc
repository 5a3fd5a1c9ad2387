// Shard protocol conformance: every frame type must round-trip, and
// malformed / truncated / corrupted / version-mismatched input must
// surface as Status errors — never a crash, never an accepted frame —
// on both the coordinator side (RecvFrame and the payload codecs) and
// the shard side (ShardServer over an in-process socketpair). v3 adds
// the CRC32C trailer (exhaustive byte-flip sweep below), the
// authenticated HELLO handshake, and the ShardEndpoint grammar.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <thread>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "distributed/shard_endpoint.h"
#include "distributed/shard_protocol.h"
#include "distributed/shard_server.h"
#include "util/crc32c.h"
#include "util/sha256.h"

namespace gz {
namespace {

class SocketPair {
 public:
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  ~SocketPair() {
    CloseA();
    CloseB();
  }
  int a() const { return fds_[0]; }
  int b() const { return fds_[1]; }
  // Fresh pair (a test restarting a server needs a new connection).
  void Reset() {
    CloseA();
    CloseB();
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void CloseA() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void CloseB() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

// Hand-crafts a frame header; `magic`/`version` default to valid so a
// test can corrupt exactly one field.
void WriteRawHeader(int fd, uint16_t type, uint64_t payload_bytes,
                    uint32_t magic = ShardFrameHeader::kMagic,
                    uint16_t version = ShardFrameHeader::kVersion) {
  uint8_t buf[ShardFrameHeader::kBytes];
  std::memcpy(buf, &magic, 4);
  std::memcpy(buf + 4, &version, 2);
  std::memcpy(buf + 6, &type, 2);
  std::memcpy(buf + 8, &payload_bytes, 8);
  ASSERT_TRUE(WriteFull(fd, buf, sizeof(buf)).ok());
}

// The retired whole-snapshot request (4), two-u64 stats request (6) and
// whole-snapshot reply (10): inside the type range, yet no message.
constexpr uint16_t kRetiredTypes[] = {4, 6, 10};

bool IsRetiredType(uint16_t type) {
  for (const uint16_t retired : kRetiredTypes) {
    if (type == retired) return true;
  }
  return false;
}

// ---- Frame round trips ----------------------------------------------------

TEST(ShardProtocolTest, EveryMessageTypeRoundTrips) {
  SocketPair sp;
  const uint8_t payload[5] = {1, 2, 3, 4, 5};
  ShardFrame frame;
  for (uint16_t t = static_cast<uint16_t>(ShardMessageType::kConfig);
       t <= static_cast<uint16_t>(ShardMessageType::kStatsReply); ++t) {
    if (IsRetiredType(t)) continue;  // RecvFrame rejects these.
    const ShardMessageType type = static_cast<ShardMessageType>(t);
    ASSERT_TRUE(SendFrame(sp.a(), type, payload, sizeof(payload)).ok());
    ASSERT_TRUE(RecvFrame(sp.b(), &frame).ok());
    EXPECT_EQ(frame.type, type);
    ASSERT_EQ(frame.payload.size(), sizeof(payload));
    EXPECT_EQ(std::memcmp(frame.payload.data(), payload, sizeof(payload)),
              0);
  }
}

TEST(ShardProtocolTest, EmptyPayloadRoundTrips) {
  SocketPair sp;
  ASSERT_TRUE(
      SendFrame(sp.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp.b(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kPing);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(ShardProtocolTest, ScatterGatherSendMatchesPlainSend) {
  SocketPair sp;
  const uint8_t a[3] = {10, 11, 12};
  const uint8_t b[4] = {20, 21, 22, 23};
  ASSERT_TRUE(SendFrame2(sp.a(), ShardMessageType::kUpdateBatch, a,
                         sizeof(a), b, sizeof(b))
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp.b(), &frame).ok());
  ASSERT_EQ(frame.payload.size(), 7u);
  EXPECT_EQ(frame.payload[0], 10);
  EXPECT_EQ(frame.payload[3], 20);
  EXPECT_EQ(frame.payload[6], 23);
}

TEST(ShardProtocolTest, RetiredFrameTypesAreRejectedBeforeDecode) {
  for (const uint16_t t : kRetiredTypes) {
    SocketPair sp;
    const uint8_t payload[3] = {1, 2, 3};
    ASSERT_TRUE(SendFrame(sp.a(), static_cast<ShardMessageType>(t), payload,
                          sizeof(payload))
                    .ok());
    ShardFrame frame;
    const Status s = RecvFrame(sp.b(), &frame);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "type " << t;
    EXPECT_NE(s.message().find("retired"), std::string::npos) << "type " << t;
  }
}

TEST(ShardProtocolTest, HeaderThenStreamedPayloadRoundTrips) {
  // The shard's range reply path: header first, payload streamed in
  // pieces afterwards, checksum accumulated alongside and sent last.
  SocketPair sp;
  FrameCrc crc;
  ASSERT_TRUE(
      SendFrameHeader(sp.a(), ShardMessageType::kMigrateData, 6, &crc)
          .ok());
  crc.Fold("abc", 3);
  ASSERT_TRUE(WriteFull(sp.a(), "abc", 3).ok());
  crc.Fold("def", 3);
  ASSERT_TRUE(WriteFull(sp.a(), "def", 3).ok());
  ASSERT_TRUE(SendFrameTrailer(sp.a(), crc).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp.b(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kMigrateData);
  EXPECT_EQ(std::string(frame.payload.begin(), frame.payload.end()),
            "abcdef");
}

TEST(ShardProtocolTest, StreamedFrameWithWrongCrcIsRejected) {
  // A streamed frame whose producer folded different bytes than it
  // wrote must bounce exactly like a corrupted buffered frame.
  SocketPair sp;
  FrameCrc crc;
  ASSERT_TRUE(
      SendFrameHeader(sp.a(), ShardMessageType::kMigrateData, 3, &crc)
          .ok());
  crc.Fold("abc", 3);
  ASSERT_TRUE(WriteFull(sp.a(), "abX", 3).ok());  // Wrote differently.
  ASSERT_TRUE(SendFrameTrailer(sp.a(), crc).ok());
  ShardFrame frame;
  const Status s = RecvFrame(sp.b(), &frame);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("checksum"), std::string::npos);
}

// ---- Malformed input on the receiving side --------------------------------

TEST(ShardProtocolTest, BadMagicIsInvalidArgument) {
  SocketPair sp;
  WriteRawHeader(sp.a(), static_cast<uint16_t>(ShardMessageType::kPing), 0,
                 /*magic=*/0xDEADBEEF);
  ShardFrame frame;
  const Status s = RecvFrame(sp.b(), &frame);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, VersionMismatchIsInvalidArgument) {
  SocketPair sp;
  WriteRawHeader(sp.a(), static_cast<uint16_t>(ShardMessageType::kPing), 0,
                 ShardFrameHeader::kMagic,
                 /*version=*/ShardFrameHeader::kVersion + 1);
  ShardFrame frame;
  const Status s = RecvFrame(sp.b(), &frame);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST(ShardProtocolTest, UnknownTypeIsInvalidArgument) {
  SocketPair sp;
  WriteRawHeader(sp.a(), /*type=*/999, 0);
  ShardFrame frame;
  EXPECT_EQ(RecvFrame(sp.b(), &frame).code(), StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, OversizedPayloadLengthIsInvalidArgument) {
  // A garbage length field must be rejected before any allocation.
  SocketPair sp;
  WriteRawHeader(sp.a(), static_cast<uint16_t>(ShardMessageType::kPing),
                 ShardFrameHeader::kMaxPayloadBytes + 1);
  ShardFrame frame;
  EXPECT_EQ(RecvFrame(sp.b(), &frame).code(), StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, TruncatedPayloadIsIoError) {
  SocketPair sp;
  WriteRawHeader(sp.a(), static_cast<uint16_t>(ShardMessageType::kPing),
                 /*payload_bytes=*/100);
  ASSERT_TRUE(WriteFull(sp.a(), "short", 5).ok());
  sp.CloseA();  // EOF mid-payload.
  ShardFrame frame;
  EXPECT_EQ(RecvFrame(sp.b(), &frame).code(), StatusCode::kIoError);
}

TEST(ShardProtocolTest, TruncatedHeaderIsIoError) {
  SocketPair sp;
  ASSERT_TRUE(WriteFull(sp.a(), "GZ", 2).ok());
  sp.CloseA();
  ShardFrame frame;
  EXPECT_EQ(RecvFrame(sp.b(), &frame).code(), StatusCode::kIoError);
}

TEST(ShardProtocolTest, WriteToClosedPeerIsIoErrorNotSignal) {
  // A SIGKILLed shard must surface as IoError; SIGPIPE would kill the
  // coordinator.
  SocketPair sp;
  sp.CloseB();
  std::vector<uint8_t> big(1 << 20, 0xAB);
  const Status s =
      SendFrame(sp.a(), ShardMessageType::kUpdateBatch, big.data(),
                big.size());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// ---- Payload codecs -------------------------------------------------------

TEST(ShardProtocolTest, ConfigPayloadRoundTrips) {
  ShardConfig in;
  in.config.num_nodes = 1234;
  in.config.seed = 99;
  in.config.cols = 9;
  in.config.rounds = 17;
  in.config.num_workers = 3;
  in.config.buffering = GraphZeppelinConfig::Buffering::kGutterTree;
  in.config.storage = GraphZeppelinConfig::Storage::kDisk;
  in.config.gutter_fraction = 0.25;
  in.config.nodes_per_gutter_group = 4;
  in.config.disk_dir = "/tmp/somewhere";
  in.config.instance_tag = "shard7";
  in.config.gutter_tree_buffer_bytes = 1 << 20;
  in.config.gutter_tree_fanout = 32;
  in.config.query_threads = 2;
  in.config.heavy_hitter_width = 4096;
  in.config.heavy_hitter_depth = 5;
  in.config.heavy_hitter_candidates = 777;
  in.shard_id = 7;
  in.table = MakeRoutingTable(9);
  in.table.epoch = 42;
  in.restore_checkpoint = "/tmp/ckpt.bin";

  const std::vector<uint8_t> bytes = EncodeShardConfig(in);
  ShardConfig out;
  ASSERT_TRUE(DecodeShardConfig(bytes.data(), bytes.size(), &out).ok());
  EXPECT_EQ(out.shard_id, 7);
  EXPECT_TRUE(out.table == in.table);
  EXPECT_EQ(out.config.num_nodes, in.config.num_nodes);
  EXPECT_EQ(out.config.seed, in.config.seed);
  EXPECT_EQ(out.config.cols, in.config.cols);
  EXPECT_EQ(out.config.rounds, in.config.rounds);
  EXPECT_EQ(out.config.num_workers, in.config.num_workers);
  EXPECT_EQ(out.config.buffering, in.config.buffering);
  EXPECT_EQ(out.config.storage, in.config.storage);
  EXPECT_EQ(out.config.gutter_fraction, in.config.gutter_fraction);
  EXPECT_EQ(out.config.nodes_per_gutter_group,
            in.config.nodes_per_gutter_group);
  EXPECT_EQ(out.config.disk_dir, in.config.disk_dir);
  EXPECT_EQ(out.config.instance_tag, in.config.instance_tag);
  EXPECT_EQ(out.config.gutter_tree_buffer_bytes,
            in.config.gutter_tree_buffer_bytes);
  EXPECT_EQ(out.config.gutter_tree_fanout, in.config.gutter_tree_fanout);
  EXPECT_EQ(out.config.query_threads, in.config.query_threads);
  EXPECT_EQ(out.config.heavy_hitter_width, in.config.heavy_hitter_width);
  EXPECT_EQ(out.config.heavy_hitter_depth, in.config.heavy_hitter_depth);
  EXPECT_EQ(out.config.heavy_hitter_candidates,
            in.config.heavy_hitter_candidates);
  EXPECT_EQ(out.restore_checkpoint, in.restore_checkpoint);
}

TEST(ShardProtocolTest, ConfigPayloadRejectsBadHeavyHitterGeometry) {
  // The heavy-hitter knobs cross the wire; out-of-range values must
  // bounce in the decoder, not abort sketch construction in the shard.
  ShardConfig base;
  base.config.num_nodes = 64;
  base.table = MakeRoutingTable(1);
  auto expect_rejected = [&](GraphZeppelinConfig mutate) {
    ShardConfig in = base;
    in.config = mutate;
    const std::vector<uint8_t> bytes = EncodeShardConfig(in);
    ShardConfig out;
    EXPECT_EQ(DecodeShardConfig(bytes.data(), bytes.size(), &out).code(),
              StatusCode::kInvalidArgument);
  };
  GraphZeppelinConfig c = base.config;
  c.heavy_hitter_width = 1000;  // Not a power of two.
  expect_rejected(c);
  c = base.config;
  c.heavy_hitter_width = CountMinSketch::kMaxWidth * 2;
  expect_rejected(c);
  c = base.config;
  c.heavy_hitter_width = 1024;
  c.heavy_hitter_depth = CountMinSketch::kMaxDepth + 1;
  expect_rejected(c);
  c = base.config;
  c.heavy_hitter_width = 1024;
  c.heavy_hitter_candidates = 0;
  expect_rejected(c);
  // Width 0 (tracking off) ignores the other knobs entirely.
  c = base.config;
  c.heavy_hitter_width = 0;
  c.heavy_hitter_depth = 200;
  ShardConfig in = base;
  in.config = c;
  const std::vector<uint8_t> bytes = EncodeShardConfig(in);
  ShardConfig out;
  EXPECT_TRUE(DecodeShardConfig(bytes.data(), bytes.size(), &out).ok());
}

TEST(ShardProtocolTest, TruncatedConfigPayloadIsInvalidArgument) {
  ShardConfig in;
  in.config.num_nodes = 64;
  in.table = MakeRoutingTable(2);
  const std::vector<uint8_t> bytes = EncodeShardConfig(in);
  ShardConfig out;
  for (size_t cut : {0ul, 1ul, 8ul, bytes.size() - 1}) {
    EXPECT_EQ(DecodeShardConfig(bytes.data(), cut, &out).code(),
              StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
  // Trailing garbage is rejected too (framing gave the exact length).
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_EQ(DecodeShardConfig(padded.data(), padded.size(), &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, AckAndErrorPayloadsRoundTrip) {
  ShardAck ack;
  ack.value0 = 42;
  ack.value1 = 7;
  const std::vector<uint8_t> ack_bytes = EncodeShardAck(ack);
  ShardAck ack_out;
  ASSERT_TRUE(DecodeShardAck(ack_bytes.data(), ack_bytes.size(), &ack_out)
                  .ok());
  EXPECT_EQ(ack_out.value0, 42u);
  EXPECT_EQ(ack_out.value1, 7u);
  EXPECT_EQ(DecodeShardAck(ack_bytes.data(), 3, &ack_out).code(),
            StatusCode::kInvalidArgument);

  const Status err = Status::NotFound("no such checkpoint");
  const std::vector<uint8_t> err_bytes = EncodeShardError(err);
  bool decode_ok = false;
  const Status decoded =
      DecodeShardError(err_bytes.data(), err_bytes.size(), &decode_ok);
  EXPECT_TRUE(decode_ok);
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_NE(decoded.message().find("no such checkpoint"),
            std::string::npos);
  const Status bad = DecodeShardError(err_bytes.data(), 2, &decode_ok);
  EXPECT_FALSE(decode_ok);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

// ---- Shard-side conformance (ShardServer over a socketpair) ---------------

class ShardServerFixture : public ::testing::Test {
 protected:
  // Launches Serve() on the b side and, by default, completes the
  // client handshake on the a side so tests exercise an established
  // session. Pass handshake=false to poke at the pre-auth state.
  void StartServer(bool handshake = true, const std::string& secret = "") {
    server_thread_ = std::thread([this, secret] {
      serve_status_ = ShardServer(sp_.b(), secret).Serve();
    });
    if (handshake) {
      ASSERT_TRUE(ClientHandshake(sp_.a(), secret).ok());
    }
  }
  void StopServer() {
    if (!stopped_) {
      SendFrame(sp_.a(), ShardMessageType::kShutdown, nullptr, 0);
      ShardFrame frame;
      RecvFrame(sp_.a(), &frame);  // Drain the shutdown ack.
    }
    if (server_thread_.joinable()) server_thread_.join();
    stopped_ = true;
  }
  void TearDown() override { StopServer(); }

  // Sends a valid config; expects the ack. The shard comes up as shard
  // 0 of a single-shard table at `epoch`.
  void Configure(uint64_t num_nodes = 16, uint64_t epoch = 1,
                 const std::string& restore_checkpoint = "") {
    ShardConfig sc;
    sc.config.num_nodes = num_nodes;
    sc.config.seed = 5;
    sc.config.num_workers = 1;
    sc.config.disk_dir = ::testing::TempDir();
    sc.shard_id = 0;
    sc.table = MakeRoutingTable(1);
    sc.table.epoch = epoch;
    sc.restore_checkpoint = restore_checkpoint;
    const std::vector<uint8_t> payload = EncodeShardConfig(sc);
    ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kConfig,
                          payload.data(), payload.size())
                    .ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kAck);
  }

  // Frames `bytes` as an UPDATE_BATCH stamped with `epoch` (the wire
  // prefix every batch carries).
  void SendUpdateBatch(const void* bytes, size_t size, uint64_t epoch = 1) {
    ASSERT_TRUE(SendFrame2(sp_.a(), ShardMessageType::kUpdateBatch, &epoch,
                           sizeof(epoch), bytes, size)
                    .ok());
  }

  // Expects the next reply to be a kError decoding to `code`.
  void ExpectErrorReply(StatusCode code) {
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kError);
    bool decode_ok = false;
    const Status s =
        DecodeShardError(frame.payload.data(), frame.payload.size(),
                         &decode_ok);
    EXPECT_TRUE(decode_ok);
    EXPECT_EQ(s.code(), code);
  }

  SocketPair sp_;
  std::thread server_thread_;
  Status serve_status_;
  bool stopped_ = false;
};

TEST_F(ShardServerFixture, RequestBeforeConfigIsErrorNotCrash) {
  StartServer();
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kFlush, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kFailedPrecondition);
  // The server survived; configure and use it normally.
  Configure();
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kStatsReply);
}

TEST_F(ShardServerFixture, MalformedConfigPayloadIsErrorNotCrash) {
  StartServer();
  const uint8_t garbage[7] = {1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kConfig, garbage,
                        sizeof(garbage))
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  Configure();  // Still serving.
}

TEST_F(ShardServerFixture, RaggedUpdateBatchErrorIsStickyAcrossBarriers) {
  // UPDATE_BATCH is fire-and-forget: an unsolicited error reply would
  // shift every later reply by one, so the failure surfaces as the
  // reply to later barriers instead — and stays sticky, because a
  // dropped batch is permanent divergence. If one barrier consumed the
  // error, a retried CHECKPOINT would succeed and the coordinator
  // would truncate the unacked log that is the only repair material.
  StartServer();
  Configure();
  const uint8_t ragged[13] = {0};  // Not a multiple of sizeof(GraphUpdate).
  SendUpdateBatch(ragged, sizeof(ragged));
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kFlush, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kCheckpoint, "x", 1).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);  // Still poisoned.
  // Pings still ack (liveness is intact; only the data is suspect) and
  // the reply stream stays 1:1.
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);
}

TEST_F(ShardServerFixture, OutOfRangeUpdateDropsBatchAndPoisonsBarriers) {
  StartServer();
  Configure(/*num_nodes=*/16);
  GraphUpdate bad;
  bad.edge.u = 3;
  bad.edge.v = 99;  // >= num_nodes; would GZ_CHECK-abort if ingested.
  bad.type = UpdateType::kInsert;
  SendUpdateBatch(&bad, sizeof(bad));
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);  // Sticky.
}

TEST_F(ShardServerFixture, UpdateBatchBeforeConfigDefersErrorToo) {
  // Even "shard not configured" must not draw an unsolicited reply to
  // a fire-and-forget frame — the reply stream would shift by one.
  StartServer();
  GraphUpdate u{Edge(0, 1), UpdateType::kInsert};
  SendUpdateBatch(&u, sizeof(u));
  Configure();  // Acks normally: the drop above queued no reply.
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kFlush, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kFailedPrecondition);  // Deferred drop.
}

TEST_F(ShardServerFixture, OutOfRangeConfigIsErrorNotCrash) {
  // Structurally valid payload, semantically impossible geometry: the
  // decoder must bounce it before GraphZeppelin's GZ_CHECKs can abort
  // the worker.
  StartServer();
  ShardConfig sc;
  sc.config.num_nodes = 16;
  sc.config.cols = 0;  // Would abort sketch construction.
  sc.config.disk_dir = ::testing::TempDir();
  sc.table = MakeRoutingTable(1);
  const std::vector<uint8_t> payload = EncodeShardConfig(sc);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kConfig, payload.data(),
                        payload.size())
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  Configure();  // Still serving; a sane config succeeds.
}

TEST_F(ShardServerFixture, EmptyCheckpointPathIsErrorNotCrash) {
  StartServer();
  Configure();
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kCheckpoint, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, UnwritableCheckpointPathIsErrorNotCrash) {
  StartServer();
  Configure();
  const char path[] = "/nonexistent-dir/ckpt.bin";
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kCheckpoint, path,
                        sizeof(path) - 1)
                  .ok());
  ExpectErrorReply(StatusCode::kIoError);
}

TEST_F(ShardServerFixture, ReplyTypeFrameOnRequestStreamIsError) {
  StartServer();
  Configure();
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kAck, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, BadMagicTerminatesServeWithErrorReply) {
  StartServer(/*handshake=*/false);
  WriteRawHeader(sp_.a(), static_cast<uint16_t>(ShardMessageType::kPing), 0,
                 /*magic=*/0x12345678);
  // Framing is lost: the shard sends a best-effort error and exits its
  // loop with a non-OK status (a crash would be a test failure here).
  ExpectErrorReply(StatusCode::kInvalidArgument);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, VersionMismatchTerminatesServeWithErrorReply) {
  StartServer(/*handshake=*/false);
  WriteRawHeader(sp_.a(), static_cast<uint16_t>(ShardMessageType::kPing), 0,
                 ShardFrameHeader::kMagic, /*version=*/7);
  ExpectErrorReply(StatusCode::kInvalidArgument);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, RetiredFrameTypesEndTheWriterSession) {
  // Framing-level rejection: a best-effort error reply, then Serve()
  // exits — the same handling as any unknown type.
  for (const uint16_t t : kRetiredTypes) {
    sp_.Reset();
    stopped_ = false;
    StartServer();
    Configure();
    ASSERT_TRUE(
        SendFrame(sp_.a(), static_cast<ShardMessageType>(t), nullptr, 0)
            .ok());
    ExpectErrorReply(StatusCode::kInvalidArgument);
    // Serve() has already returned; a hang-up here would end a session
    // that wrongly kept serving with an IoError instead.
    sp_.CloseA();
    if (server_thread_.joinable()) server_thread_.join();
    EXPECT_EQ(serve_status_.code(), StatusCode::kInvalidArgument)
        << "type " << t;
    stopped_ = true;
  }
}

TEST_F(ShardServerFixture, CoordinatorHangupEndsServeCleanly) {
  StartServer();
  Configure();
  sp_.CloseA();
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_EQ(serve_status_.code(), StatusCode::kIoError);
  stopped_ = true;
}

// ---- Elastic-resharding conformance ---------------------------------------

TEST_F(ShardServerFixture, StaleEpochUpdateBatchIsDeferredStatusError) {
  // A batch stamped with any epoch other than the shard's current one
  // must be dropped with a deferred Status error (fire-and-forget
  // frames never draw unsolicited replies) — never ingested, never a
  // crash.
  StartServer();
  Configure(/*num_nodes=*/16, /*epoch=*/3);
  GraphUpdate u{Edge(0, 1), UpdateType::kInsert};
  SendUpdateBatch(&u, sizeof(u), /*epoch=*/2);  // Stale.
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kFlush, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, FutureEpochUpdateBatchIsDeferredStatusError) {
  StartServer();
  Configure(/*num_nodes=*/16, /*epoch=*/3);
  GraphUpdate u{Edge(0, 1), UpdateType::kInsert};
  SendUpdateBatch(&u, sizeof(u), /*epoch=*/9);  // From the future.
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, EpochFrameAdvancesWhatBatchesMustStamp) {
  StartServer();
  Configure(/*num_nodes=*/16, /*epoch=*/1);
  // Advance to epoch 5; batches stamped 5 now ingest, batches stamped
  // 1 now bounce.
  RoutingTable table = MakeRoutingTable(1);
  table.epoch = 5;
  const std::vector<uint8_t> payload = EncodeRoutingTable(table);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kEpoch, payload.data(),
                        payload.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kAck);

  GraphUpdate u{Edge(0, 1), UpdateType::kInsert};
  SendUpdateBatch(&u, sizeof(u), /*epoch=*/5);
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kStatsReply);
  ShardStatsEx stats;
  ASSERT_TRUE(DecodeShardStatsEx(frame.payload.data(), frame.payload.size(),
                                 &stats)
                  .ok());
  // The stamped-current batch was ingested.
  EXPECT_EQ(stats.num_updates, 1u);
}

TEST_F(ShardServerFixture, EpochRegressionIsErrorNotCrash) {
  StartServer();
  Configure(/*num_nodes=*/16, /*epoch=*/6);
  RoutingTable stale = MakeRoutingTable(1);
  stale.epoch = 2;
  const std::vector<uint8_t> payload = EncodeRoutingTable(stale);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kEpoch, payload.data(),
                        payload.size())
                  .ok());
  ExpectErrorReply(StatusCode::kFailedPrecondition);
}

TEST_F(ShardServerFixture, TruncatedEpochTablePayloadIsErrorNotCrash) {
  StartServer();
  Configure();
  const std::vector<uint8_t> payload =
      EncodeRoutingTable(MakeRoutingTable(1));
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kEpoch, payload.data(),
                        payload.size() / 2)
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, TruncatedMigrateExtractPayloadIsErrorNotCrash) {
  StartServer();
  Configure();
  const uint8_t short_payload[7] = {0};  // Needs two u64s.
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                        short_payload, sizeof(short_payload))
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, OutOfBoundsMigrateRangeIsErrorNotCrash) {
  StartServer();
  Configure(/*num_nodes=*/16);
  const std::vector<uint8_t> req = EncodeMigrateExtract(4, 99);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                        req.data(), req.size())
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  const std::vector<uint8_t> empty = EncodeMigrateExtract(4, 4);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                        empty.data(), empty.size())
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, TruncatedMergeDeltaPayloadIsErrorNotCrash) {
  StartServer();
  Configure();
  const uint8_t garbage[21] = {0};
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMergeDelta, garbage,
                        sizeof(garbage))
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
}

TEST_F(ShardServerFixture, MigrateExtractRoundTripsThroughMergeDelta) {
  // The migration algebra over the wire: the whole range [0, n) — the
  // coordinator's snapshot read — and the split [0, k) + [k, n), each
  // folded into an empty same-params instance, must reproduce the
  // sketch content of a local instance fed the same updates.
  StartServer();
  Configure(/*num_nodes=*/16);
  GraphUpdate updates[3] = {{Edge(0, 1), UpdateType::kInsert},
                            {Edge(1, 9), UpdateType::kInsert},
                            {Edge(12, 15), UpdateType::kInsert}};
  SendUpdateBatch(updates, sizeof(updates));

  GraphZeppelinConfig config;
  config.num_nodes = 16;
  config.seed = 5;
  config.num_workers = 1;
  config.disk_dir = ::testing::TempDir();
  GraphZeppelin reference(config);
  ASSERT_TRUE(reference.Init().ok());
  reference.Update(updates, 3);
  GraphSnapshot expect = reference.Snapshot();
  // Deltas carry no update counts by design; compare sketch content.
  expect.SetUpdates(0);

  const auto rebuild = [&](std::initializer_list<std::pair<uint64_t,
                                                           uint64_t>>
                               ranges) {
    GraphZeppelin twin(config);
    EXPECT_TRUE(twin.Init().ok());
    for (const auto& [lo, hi] : ranges) {
      const std::vector<uint8_t> req = EncodeMigrateExtract(lo, hi);
      EXPECT_TRUE(SendFrame(sp_.a(), ShardMessageType::kMigrateExtract,
                            req.data(), req.size())
                      .ok());
      ShardFrame frame;
      EXPECT_TRUE(RecvFrame(sp_.a(), &frame).ok());
      EXPECT_EQ(frame.type, ShardMessageType::kMigrateData);
      EXPECT_TRUE(twin.MergeSerializedNodeRange(frame.payload.data(),
                                                frame.payload.size())
                      .ok());
    }
    return twin.Snapshot();
  };
  EXPECT_TRUE(rebuild({{0, 16}}) == expect);
  EXPECT_TRUE(rebuild({{0, 7}, {7, 16}}) == expect);
}

TEST_F(ShardServerFixture, ConfigEpochOlderThanCheckpointIsErrorNotCrash) {
  // Restore hand-off consistency: a checkpoint saved at epoch 7 must
  // not come back under a config whose table says epoch 3 — that
  // coordinator's view of placement predates the checkpoint.
  StartServer();
  Configure(/*num_nodes=*/16, /*epoch=*/1);
  RoutingTable table = MakeRoutingTable(1);
  table.epoch = 7;
  const std::vector<uint8_t> epoch_payload = EncodeRoutingTable(table);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kEpoch,
                        epoch_payload.data(), epoch_payload.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kAck);
  const std::string ckpt =
      ::testing::TempDir() + "/gz_epoch_mismatch_ckpt.bin";
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kCheckpoint,
                        ckpt.data(), ckpt.size())
                  .ok());
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kAck);
  StopServer();

  // Fresh server, config at an OLDER epoch than the checkpoint.
  sp_.Reset();
  stopped_ = false;
  StartServer();
  ShardConfig sc;
  sc.config.num_nodes = 16;
  sc.config.seed = 5;
  sc.config.num_workers = 1;
  sc.config.disk_dir = ::testing::TempDir();
  sc.table = MakeRoutingTable(1);
  sc.table.epoch = 3;
  sc.restore_checkpoint = ckpt;
  const std::vector<uint8_t> payload = EncodeShardConfig(sc);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kConfig, payload.data(),
                        payload.size())
                  .ok());
  ExpectErrorReply(StatusCode::kFailedPrecondition);
  // Same checkpoint under epoch >= 7 restores fine (same server: the
  // failed restore left it unconfigured).
  Configure(/*num_nodes=*/16, /*epoch=*/8, /*restore_checkpoint=*/ckpt);
  ::unlink(ckpt.c_str());
}

// ---- Frame-corruption conformance sweep -----------------------------------

// Serializes one whole frame (header + payload + trailer) through the
// real send path.
std::vector<uint8_t> FrameBytes(ShardMessageType type,
                                const std::vector<uint8_t>& payload) {
  SocketPair sp;
  EXPECT_TRUE(
      SendFrame(sp.a(), type, payload.data(), payload.size()).ok());
  std::vector<uint8_t> bytes(ShardFrameHeader::kBytes + payload.size() +
                             ShardFrameHeader::kCrcBytes);
  EXPECT_TRUE(ReadFull(sp.b(), bytes.data(), bytes.size()).ok());
  return bytes;
}

// A representative payload per v3 frame type: real codec output where
// one exists, so the sweep corrupts exactly the bytes production
// frames carry.
std::vector<uint8_t> RepresentativePayload(ShardMessageType type) {
  switch (type) {
    case ShardMessageType::kConfig: {
      ShardConfig sc;
      sc.config.num_nodes = 64;
      sc.config.disk_dir = "/tmp/x";
      sc.table = MakeRoutingTable(2);
      return EncodeShardConfig(sc);
    }
    case ShardMessageType::kUpdateBatch: {
      std::vector<uint8_t> payload(sizeof(uint64_t) + sizeof(GraphUpdate));
      const uint64_t epoch = 1;
      GraphUpdate u{Edge(0, 1), UpdateType::kInsert};
      std::memcpy(payload.data(), &epoch, sizeof(epoch));
      std::memcpy(payload.data() + sizeof(epoch), &u, sizeof(u));
      return payload;
    }
    case ShardMessageType::kCheckpoint: {
      const std::string path = "/tmp/ckpt.bin";
      return std::vector<uint8_t>(path.begin(), path.end());
    }
    case ShardMessageType::kAck:
      return EncodeShardAck(ShardAck{42, 7});
    case ShardMessageType::kMigrateData:
    case ShardMessageType::kMergeDelta:
      return std::vector<uint8_t>(48, 0xA5);  // Opaque snapshot bytes.
    case ShardMessageType::kError:
      return EncodeShardError(Status::NotFound("x"));
    case ShardMessageType::kEpoch:
      return EncodeRoutingTable(MakeRoutingTable(3));
    case ShardMessageType::kMigrateExtract:
      return EncodeMigrateExtract(0, 32);
    case ShardMessageType::kHello:
      return std::vector<uint8_t>(kHandshakeNonceBytes, 0x11);
    case ShardMessageType::kChallenge:
      return std::vector<uint8_t>(kHandshakeNonceBytes + kSha256Bytes, 0x22);
    case ShardMessageType::kAuth:
      return std::vector<uint8_t>(kSha256Bytes, 0x33);
    case ShardMessageType::kStatsReply: {
      ShardStatsEx stats;
      stats.shard_id = 2;
      stats.epoch = 7;
      stats.num_updates = 1234;
      stats.delta_seq = 3;
      stats.ram_bytes = 1 << 20;
      stats.num_nodes = 64;
      stats.seed = 5;
      stats.cols = 4;
      stats.rounds = 12;
      return EncodeShardStatsEx(stats);
    }
    default:
      // kFlush/kStatsEx/kPing/kShutdown: empty.
      return {};
  }
}

TEST(ShardProtocolTest, EveryByteFlipOfEveryFrameTypeIsACleanStatus) {
  // The v3 integrity claim, pinned exhaustively: flip each byte of
  // every frame type — header, payload, trailer — and the receiver
  // must return a Status (checksum or decode error). Never a crash,
  // and NEVER an accepted frame: any accepted flip would mean a
  // corruption the protocol cannot see.
  for (uint16_t t = static_cast<uint16_t>(ShardMessageType::kConfig);
       t <= static_cast<uint16_t>(ShardMessageType::kStatsReply); ++t) {
    if (IsRetiredType(t)) continue;  // RecvFrame rejects these.
    const ShardMessageType type = static_cast<ShardMessageType>(t);
    const std::vector<uint8_t> good = FrameBytes(type,
                                                 RepresentativePayload(type));
    // Sanity: the uncorrupted frame is accepted.
    {
      SocketPair sp;
      ASSERT_TRUE(WriteFull(sp.a(), good.data(), good.size()).ok());
      sp.CloseA();
      ShardFrame frame;
      ASSERT_TRUE(RecvFrame(sp.b(), &frame).ok()) << "type " << t;
      EXPECT_EQ(frame.type, type);
    }
    for (size_t i = 0; i < good.size(); ++i) {
      std::vector<uint8_t> corrupt = good;
      corrupt[i] ^= 0x5A;
      SocketPair sp;
      ASSERT_TRUE(WriteFull(sp.a(), corrupt.data(), corrupt.size()).ok());
      // EOF after the frame: a flip in the length field must surface
      // as a short read, not hang waiting for bytes that never come.
      sp.CloseA();
      ShardFrame frame;
      const Status s = RecvFrame(sp.b(), &frame);
      EXPECT_FALSE(s.ok()) << "type " << t << ", flipped byte " << i
                           << " was ACCEPTED";
    }
  }
}

TEST_F(ShardServerFixture, CorruptedFrameFencesTheServerConnection) {
  // Server side of the same property: one corrupted byte in an
  // established session is a lost-framing event — error reply
  // (best-effort), Serve() exits with a Status, no crash, and the
  // poisoned frame was never acted on.
  StartServer();
  Configure(/*num_nodes=*/16);
  GraphUpdate u{Edge(0, 1), UpdateType::kInsert};
  std::vector<uint8_t> payload(sizeof(uint64_t) + sizeof(u));
  const uint64_t epoch = 1;
  std::memcpy(payload.data(), &epoch, sizeof(epoch));
  std::memcpy(payload.data() + sizeof(epoch), &u, sizeof(u));
  std::vector<uint8_t> bytes =
      FrameBytes(ShardMessageType::kUpdateBatch, payload);
  bytes[ShardFrameHeader::kBytes + sizeof(uint64_t)] ^= 0xFF;  // Edge bits.
  ASSERT_TRUE(WriteFull(sp_.a(), bytes.data(), bytes.size()).ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

// ---- Authenticated handshake ----------------------------------------------

TEST_F(ShardServerFixture, MatchingSecretsEstablishAndServe) {
  StartServer(/*handshake=*/true, "super-secret");
  Configure();
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);
}

TEST_F(ShardServerFixture, WrongSecretIsRefusedByTheClient) {
  // The server proves first (mutual auth), so a coordinator dialing a
  // shard with the wrong secret discovers the mismatch itself — before
  // handing over any state.
  StartServer(/*handshake=*/false, "server-secret");
  const Status s = ClientHandshake(sp_.a(), "client-secret");
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("authentication"), std::string::npos);
  sp_.CloseA();
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, ForgedClientProofIsRefusedByTheServer) {
  // An attacker who watched the challenge but lacks the secret cannot
  // complete: a garbage proof draws a kError and ends the session.
  StartServer(/*handshake=*/false, "server-secret");
  const std::vector<uint8_t> nonce(kHandshakeNonceBytes, 0x42);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kHello, nonce.data(),
                        nonce.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kChallenge);
  const std::vector<uint8_t> forged(kSha256Bytes, 0x00);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kAuth, forged.data(),
                        forged.size())
                  .ok());
  ExpectErrorReply(StatusCode::kFailedPrecondition);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, UpdateBatchCannotBeInjectedBeforeAuth) {
  // THE threat-model property: an unauthenticated peer sending an
  // UPDATE_BATCH as its first frame gets an error and a dead
  // connection — the frame never reaches the ingest path.
  StartServer(/*handshake=*/false, "server-secret");
  GraphUpdate u{Edge(0, 1), UpdateType::kInsert};
  std::vector<uint8_t> payload(sizeof(uint64_t) + sizeof(u));
  const uint64_t epoch = 1;
  std::memcpy(payload.data(), &epoch, sizeof(epoch));
  std::memcpy(payload.data() + sizeof(epoch), &u, sizeof(u));
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kUpdateBatch,
                        payload.data(), payload.size())
                  .ok());
  ExpectErrorReply(StatusCode::kFailedPrecondition);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, PreAuthFrameLengthIsCappedTiny) {
  // The pre-auth allocation-DoS gate: handshake frames are tiny and
  // fixed-size, so a length field even modestly above the handshake
  // cap (let alone the multi-GB protocol cap) is refused BEFORE any
  // allocation or payload read.
  StartServer(/*handshake=*/false, "server-secret");
  WriteRawHeader(sp_.a(), static_cast<uint16_t>(ShardMessageType::kHello),
                 /*payload_bytes=*/1 << 20);
  ExpectErrorReply(StatusCode::kInvalidArgument);
  if (server_thread_.joinable()) server_thread_.join();
  EXPECT_FALSE(serve_status_.ok());
  stopped_ = true;
}

TEST_F(ShardServerFixture, HandshakeFrameMidSessionIsErrorNotCrash) {
  StartServer();
  Configure();
  const std::vector<uint8_t> nonce(kHandshakeNonceBytes, 0x01);
  ASSERT_TRUE(SendFrame(sp_.a(), ShardMessageType::kHello, nonce.data(),
                        nonce.size())
                  .ok());
  ExpectErrorReply(StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      SendFrame(sp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);  // Session survived.
}

// ---- ShardEndpoint grammar ------------------------------------------------

TEST(ShardEndpointTest, ParsesTheGrammar) {
  Result<ShardEndpoint> local = ParseShardEndpoint("local:");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local.value().kind, ShardEndpoint::Kind::kLocal);
  EXPECT_EQ(local.value().ToString(), "local:");
  EXPECT_TRUE(ParseShardEndpoint("").ok());  // Unset slot = local.

  Result<ShardEndpoint> thread = ParseShardEndpoint("thread:");
  ASSERT_TRUE(thread.ok());
  EXPECT_EQ(thread.value().kind, ShardEndpoint::Kind::kThread);
  EXPECT_EQ(thread.value().ToString(), "thread:");

  Result<ShardEndpoint> tcp = ParseShardEndpoint("tcp://10.0.0.7:9001");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp.value().kind, ShardEndpoint::Kind::kTcp);
  EXPECT_EQ(tcp.value().host, "10.0.0.7");
  EXPECT_EQ(tcp.value().port, 9001);
  EXPECT_EQ(tcp.value().ToString(), "tcp://10.0.0.7:9001");

  for (const char* bad :
       {"tcp://", "tcp://host", "tcp://host:", "tcp://:80",
        "tcp://host:0", "tcp://host:65536", "tcp://host:12x",
        "udp://host:80", "host:80"}) {
    EXPECT_EQ(ParseShardEndpoint(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

// ---- Routing --------------------------------------------------------------

TEST(ShardProtocolTest, RoutingIsDeterministicAndBounded) {
  const RoutingTable table = MakeRoutingTable(5);
  for (NodeId u = 0; u < 40; ++u) {
    const Edge e(u, static_cast<NodeId>(u + 7));
    const int shard = RouteToShard(e, 64, table);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 5);
    EXPECT_EQ(shard, RouteToShard(e, 64, table));
  }
}

TEST(ShardProtocolTest, RoutingTablePayloadRoundTrips) {
  RoutingTable table = MakeRoutingTable(7);
  table.epoch = 19;
  const std::vector<uint8_t> bytes = EncodeRoutingTable(table);
  RoutingTable out;
  ASSERT_TRUE(DecodeRoutingTable(bytes.data(), bytes.size(), &out).ok());
  EXPECT_TRUE(out == table);
  // Truncation and trailing garbage are both rejected.
  EXPECT_EQ(DecodeRoutingTable(bytes.data(), bytes.size() - 1, &out).code(),
            StatusCode::kInvalidArgument);
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_EQ(DecodeRoutingTable(padded.data(), padded.size(), &out).code(),
            StatusCode::kInvalidArgument);
  // Epoch 0 (unset) and negative owners are structural errors.
  RoutingTable zero = table;
  zero.epoch = 0;
  const std::vector<uint8_t> zero_bytes = EncodeRoutingTable(zero);
  EXPECT_EQ(
      DecodeRoutingTable(zero_bytes.data(), zero_bytes.size(), &out).code(),
      StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, RoutingTableCarriesAndBoundsTheReplicationFactor) {
  // Replication rides the routing-table broadcast: the factor must
  // round-trip exactly, default to 1 (the pre-replication wire form),
  // and die in the decoder when out of [1, kMaxReplication].
  RoutingTable table = MakeRoutingTable(3);
  EXPECT_EQ(table.replication, 1u);  // Unreplicated by default.
  table.replication = 4;
  const std::vector<uint8_t> bytes = EncodeRoutingTable(table);
  RoutingTable out;
  ASSERT_TRUE(DecodeRoutingTable(bytes.data(), bytes.size(), &out).ok());
  EXPECT_TRUE(out == table);
  EXPECT_EQ(out.replication, 4u);
  for (const uint32_t bad : {0u, RoutingTable::kMaxReplication + 1}) {
    RoutingTable garbled = table;
    garbled.replication = bad;
    const std::vector<uint8_t> enc = EncodeRoutingTable(garbled);
    EXPECT_EQ(DecodeRoutingTable(enc.data(), enc.size(), &out).code(),
              StatusCode::kInvalidArgument)
        << "replication " << bad << " was accepted";
  }
}

TEST(ShardProtocolTest, SyncPositionPayloadRoundTrips) {
  // The anti-entropy finalizer: kSyncPosition asserts the logical
  // {num_updates, delta_seq} position a repaired replica must report.
  const std::vector<uint8_t> bytes =
      EncodeSyncPosition(1ULL << 40, 17);
  uint64_t num_updates = 0, delta_seq = 0;
  ASSERT_TRUE(
      DecodeSyncPosition(bytes.data(), bytes.size(), &num_updates,
                         &delta_seq)
          .ok());
  EXPECT_EQ(num_updates, 1ULL << 40);
  EXPECT_EQ(delta_seq, 17u);
  // Every truncation and any trailing garbage is a structural error.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(DecodeSyncPosition(bytes.data(), cut, &num_updates,
                                 &delta_seq)
                  .code(),
              StatusCode::kInvalidArgument)
        << "truncated to " << cut << " bytes was accepted";
  }
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  const Status s = DecodeSyncPosition(padded.data(), padded.size(),
                                      &num_updates, &delta_seq);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("sync-position"), std::string::npos);
}

TEST(ShardProtocolTest, SlotOwnershipIsBalancedForAnyShardCount) {
  // The old modulo router was biased for non-power-of-two shard
  // counts. Slot routing is uniform over slots by construction (mask
  // reduction); this pins the other half: every shard owns floor or
  // ceil of kNumSlots/num_shards slots, for power-of-two and
  // non-power-of-two counts alike.
  for (const int shards : {1, 2, 3, 5, 6, 7, 8, 12}) {
    const RoutingTable table = MakeRoutingTable(shards);
    std::vector<int> counts(shards, 0);
    for (const int32_t owner : table.owners) {
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, shards);
      ++counts[owner];
    }
    const int floor_share =
        static_cast<int>(RoutingTable::kNumSlots) / shards;
    for (const int c : counts) {
      EXPECT_GE(c, floor_share) << shards << " shards";
      EXPECT_LE(c, floor_share + 1) << shards << " shards";
    }
  }
}

TEST(ShardProtocolTest, RebalanceHelpersKeepOwnershipBalancedAndVersioned) {
  RoutingTable table = MakeRoutingTable(3);
  const RoutingTable added = TableWithShardAdded(table, 3);
  EXPECT_EQ(added.epoch, table.epoch + 1);
  EXPECT_EQ(TableOwners(added), (std::vector<int>{0, 1, 2, 3}));
  int new_count = 0;
  for (const int32_t o : added.owners) new_count += (o == 3);
  EXPECT_EQ(new_count,
            static_cast<int>(RoutingTable::kNumSlots) / 4);

  const RoutingTable removed = TableWithShardRemoved(added, 1);
  EXPECT_EQ(removed.epoch, added.epoch + 1);
  EXPECT_EQ(TableOwners(removed), (std::vector<int>{0, 2, 3}));

  const RoutingTable split = TableWithShardSplit(removed, 0, 4);
  EXPECT_EQ(split.epoch, removed.epoch + 1);
  int source_count = 0, split_count = 0, before = 0;
  for (const int32_t o : removed.owners) before += (o == 0);
  for (const int32_t o : split.owners) {
    source_count += (o == 0);
    split_count += (o == 4);
  }
  EXPECT_EQ(source_count + split_count, before);
  EXPECT_LE(std::abs(source_count - split_count), 1);
  // Slots not owned by the split source are untouched.
  for (uint32_t s = 0; s < RoutingTable::kNumSlots; ++s) {
    if (removed.owners[s] != 0) {
      EXPECT_EQ(split.owners[s], removed.owners[s]);
    }
  }
}

TEST(ShardProtocolTest, EveryLiveShardAlwaysOwnsAtLeastOneSlot) {
  // The invariant the elastic entry points guard (split needs >= 2
  // source slots, add needs a free owner column): no legal sequence of
  // rebalance steps ever produces a zero-slot owner, so the active set
  // always equals TableOwners() and a removal always finds an heir.
  // Drive splits all the way down to 1-slot owners to pin the floor.
  RoutingTable table = MakeRoutingTable(1);
  int next_id = 1;
  bool split_any = true;
  while (split_any) {
    split_any = false;
    const std::vector<int> owners = TableOwners(table);
    for (const int id : owners) {
      if (TableSlotCount(table, id) < 2) continue;  // The entry guard.
      table = TableWithShardSplit(table, id, next_id++);
      split_any = true;
    }
    for (const int id : TableOwners(table)) {
      ASSERT_GE(TableSlotCount(table, id), 1);
    }
  }
  // Fully fragmented: every one of the kNumSlots owners holds exactly
  // one slot, and removals still walk down to a single owner without
  // ever losing a slot.
  EXPECT_EQ(TableOwners(table).size(), RoutingTable::kNumSlots);
  while (TableOwners(table).size() > 1) {
    table = TableWithShardRemoved(table, TableOwners(table).front());
    int total = 0;
    for (const int id : TableOwners(table)) {
      const int n = TableSlotCount(table, id);
      ASSERT_GE(n, 1);
      total += n;
    }
    ASSERT_EQ(total, static_cast<int>(RoutingTable::kNumSlots));
  }
}

// ---- ShardStatsEx codec ---------------------------------------------------

TEST(ShardStatsExTest, RoundTrips) {
  ShardStatsEx stats;
  stats.shard_id = 3;
  stats.epoch = 9;
  stats.num_updates = 1ULL << 40;
  stats.delta_seq = 17;
  stats.ram_bytes = 123456789;
  stats.num_nodes = 1 << 20;
  stats.seed = 0xDEADBEEFCAFEULL;
  stats.cols = 6;
  stats.rounds = 61;
  const std::vector<uint8_t> bytes = EncodeShardStatsEx(stats);
  ShardStatsEx decoded;
  ASSERT_TRUE(DecodeShardStatsEx(bytes.data(), bytes.size(), &decoded).ok());
  EXPECT_EQ(decoded.shard_id, stats.shard_id);
  EXPECT_EQ(decoded.epoch, stats.epoch);
  EXPECT_EQ(decoded.num_updates, stats.num_updates);
  EXPECT_EQ(decoded.delta_seq, stats.delta_seq);
  EXPECT_EQ(decoded.ram_bytes, stats.ram_bytes);
  EXPECT_EQ(decoded.num_nodes, stats.num_nodes);
  EXPECT_EQ(decoded.seed, stats.seed);
  EXPECT_EQ(decoded.cols, stats.cols);
  EXPECT_EQ(decoded.rounds, stats.rounds);
}

TEST(ShardStatsExTest, RejectsTruncationTrailingBytesAndBadRanges) {
  ShardStatsEx stats;
  stats.shard_id = 1;
  stats.epoch = 2;
  stats.num_nodes = 64;
  stats.seed = 5;
  stats.cols = 4;
  stats.rounds = 12;
  const std::vector<uint8_t> bytes = EncodeShardStatsEx(stats);
  ShardStatsEx decoded;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeShardStatsEx(bytes.data(), cut, &decoded).ok())
        << "truncated to " << cut << " bytes was accepted";
  }
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(
      DecodeShardStatsEx(padded.data(), padded.size(), &decoded).ok());
  // Every range cap: this payload feeds zero-snapshot construction on
  // the client, so out-of-range geometry must die in the decoder.
  const auto rejects = [&](ShardStatsEx bad) {
    const std::vector<uint8_t> enc = EncodeShardStatsEx(bad);
    ShardStatsEx out;
    const Status s = DecodeShardStatsEx(enc.data(), enc.size(), &out);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  };
  ShardStatsEx bad = stats;
  bad.shard_id = -1;
  rejects(bad);
  bad = stats;
  bad.epoch = 0;
  rejects(bad);
  bad = stats;
  bad.num_nodes = 1;
  rejects(bad);
  bad = stats;
  bad.cols = 0;
  rejects(bad);
  bad = stats;
  bad.rounds = 5000;
  rejects(bad);
  // The replication factor feeds reader-side replica grouping; zero or
  // beyond the protocol cap is as fatal as broken geometry.
  bad = stats;
  bad.replication = 0;
  rejects(bad);
  bad = stats;
  bad.replication = RoutingTable::kMaxReplication + 1;
  rejects(bad);
}

TEST(ShardStatsExTest, ReplicationFactorRoundTrips) {
  ShardStatsEx stats;
  stats.shard_id = 0;
  stats.epoch = 1;
  stats.num_nodes = 64;
  stats.seed = 5;
  stats.cols = 4;
  stats.rounds = 12;
  EXPECT_EQ(stats.replication, 1u);  // Pre-replication default.
  stats.replication = 3;
  const std::vector<uint8_t> bytes = EncodeShardStatsEx(stats);
  ShardStatsEx decoded;
  ASSERT_TRUE(
      DecodeShardStatsEx(bytes.data(), bytes.size(), &decoded).ok());
  EXPECT_EQ(decoded.replication, 3u);
}

// ---- Reader-role handshake ------------------------------------------------

TEST(ReaderRoleTest, ReaderHandshakeBindsTheRole) {
  SocketPair sp;
  ShardSessionRole role = ShardSessionRole::kWriter;
  std::thread server([&] {
    EXPECT_TRUE(ServerHandshake(sp.b(), "s3cr3t", &role).ok());
  });
  EXPECT_TRUE(
      ClientHandshake(sp.a(), "s3cr3t", ShardSessionRole::kReader).ok());
  server.join();
  EXPECT_EQ(role, ShardSessionRole::kReader);
}

TEST(ReaderRoleTest, WriterHandshakeDefaultsAndStaysCompatible) {
  // The pre-role client call (no role argument) must still produce a
  // writer session — a v3 coordinator and a role-aware listener
  // interoperate without a flag day.
  SocketPair sp;
  ShardSessionRole role = ShardSessionRole::kReader;
  std::thread server([&] {
    EXPECT_TRUE(ServerHandshake(sp.b(), "s3cr3t", &role).ok());
  });
  EXPECT_TRUE(ClientHandshake(sp.a(), "s3cr3t").ok());
  server.join();
  EXPECT_EQ(role, ShardSessionRole::kWriter);
}

TEST(ReaderRoleTest, UnknownRoleByteIsRefused) {
  SocketPair sp;
  Status server_status;
  std::thread server(
      [&] { server_status = ServerHandshake(sp.b(), "s3cr3t", nullptr); });
  uint8_t hello[kHandshakeNonceBytes + 1] = {0};
  hello[kHandshakeNonceBytes] = 7;  // Not a role this protocol knows.
  ASSERT_TRUE(SendFrame(sp.a(), ShardMessageType::kHello, hello,
                        sizeof(hello))
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  server.join();
  EXPECT_FALSE(server_status.ok());
}

TEST(ReaderRoleTest, ReaderRoleWithWriterProofIsRefused) {
  // The role byte travels in cleartext but both proofs commit to it
  // through distinct HMAC domains: a peer that declares the reader
  // role yet proves with the WRITER domain (a downgrade/confusion
  // splice) must fail authentication even though it knows the secret.
  SocketPair sp;
  const std::string secret = "s3cr3t";
  Status server_status;
  std::thread server(
      [&] { server_status = ServerHandshake(sp.b(), secret, nullptr); });
  uint8_t hello[kHandshakeNonceBytes + 1] = {0x42};
  hello[kHandshakeNonceBytes] =
      static_cast<uint8_t>(ShardSessionRole::kReader);
  ASSERT_TRUE(SendFrame(sp.a(), ShardMessageType::kHello, hello,
                        sizeof(hello))
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(sp.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kChallenge);
  ASSERT_EQ(frame.payload.size(), kHandshakeNonceBytes + kSha256Bytes);
  // proof = HMAC(secret, domain16 || client_nonce || server_nonce),
  // with the writer's client domain instead of the reader's.
  uint8_t message[16 + 2 * kHandshakeNonceBytes] = {0};
  std::memcpy(message, "gzsp3-client", sizeof("gzsp3-client") - 1);
  std::memcpy(message + 16, hello, kHandshakeNonceBytes);
  std::memcpy(message + 16 + kHandshakeNonceBytes, frame.payload.data(),
              kHandshakeNonceBytes);
  uint8_t proof[kSha256Bytes];
  HmacSha256(secret.data(), secret.size(), message, sizeof(message), proof);
  ASSERT_TRUE(SendFrame(sp.a(), ShardMessageType::kAuth, proof,
                        sizeof(proof))
                  .ok());
  ASSERT_TRUE(RecvFrame(sp.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  server.join();
  EXPECT_FALSE(server_status.ok());
}

// ---- Reader sessions ------------------------------------------------------

// A writer and a reader session sharing one ShardInstanceState over
// socketpairs — ShardListener's wiring without the TCP, so the
// read-only contract is pinned at the ShardServer layer itself.
class ReaderSessionFixture : public ::testing::Test {
 protected:
  void Start() {
    writer_thread_ = std::thread([this] {
      writer_status_ = ShardServer(wp_.b(), &state_,
                                   ShardSessionRole::kWriter, 30)
                           .Serve();
    });
    StartReader();
  }
  void StartReader() {
    reader_thread_ = std::thread([this] {
      reader_status_ = ShardServer(rp_.b(), &state_,
                                   ShardSessionRole::kReader, 30)
                           .Serve();
    });
  }
  void TearDown() override {
    if (writer_thread_.joinable()) {
      SendFrame(wp_.a(), ShardMessageType::kShutdown, nullptr, 0);
      ShardFrame frame;
      RecvFrame(wp_.a(), &frame);
      writer_thread_.join();
      EXPECT_TRUE(writer_status_.ok());
    }
    if (reader_thread_.joinable()) {
      rp_.CloseA();  // Reader hangup; must not disturb the instance.
      reader_thread_.join();
    }
  }

  void Configure(uint64_t num_nodes = 16) {
    ShardConfig sc;
    sc.config.num_nodes = num_nodes;
    sc.config.seed = 5;
    sc.config.num_workers = 1;
    sc.config.disk_dir = ::testing::TempDir();
    sc.shard_id = 0;
    sc.table = MakeRoutingTable(1);
    sc.table.epoch = 1;
    const std::vector<uint8_t> payload = EncodeShardConfig(sc);
    ASSERT_TRUE(SendFrame(wp_.a(), ShardMessageType::kConfig,
                          payload.data(), payload.size())
                    .ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(wp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kAck);
  }

  // One insert through the writer, then a flush (its ack is the
  // barrier that makes the update visible to reader stats).
  void IngestOneEdge() {
    const uint64_t epoch = 1;
    GraphUpdate u{Edge(0, 1), UpdateType::kInsert};
    ASSERT_TRUE(SendFrame2(wp_.a(), ShardMessageType::kUpdateBatch, &epoch,
                           sizeof(epoch), &u, sizeof(u))
                    .ok());
    ASSERT_TRUE(
        SendFrame(wp_.a(), ShardMessageType::kFlush, nullptr, 0).ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(wp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kAck);
  }

  SocketPair wp_, rp_;
  ShardInstanceState state_;
  std::thread writer_thread_, reader_thread_;
  Status writer_status_, reader_status_;
};

TEST_F(ReaderSessionFixture, ReaderServesReadOnlyFramesConcurrently) {
  Start();
  Configure();
  IngestOneEdge();
  ShardFrame frame;
  // PING works even though this session could never have configured.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);
  // STATS_EX reports the writer's ingest through the shared instance.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kStatsReply);
  ShardStatsEx stats;
  ASSERT_TRUE(DecodeShardStatsEx(frame.payload.data(),
                                 frame.payload.size(), &stats)
                  .ok());
  EXPECT_EQ(stats.shard_id, 0);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.num_updates, 1u);
  EXPECT_EQ(stats.num_nodes, 16u);
  // MIGRATE_EXTRACT over [0, n) reads the whole sketch state: the
  // content of a local instance fed the same edge.
  const std::vector<uint8_t> req = EncodeMigrateExtract(0, 16);
  ASSERT_TRUE(SendFrame(rp_.a(), ShardMessageType::kMigrateExtract,
                        req.data(), req.size())
                  .ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kMigrateData);
  GraphZeppelinConfig config;
  config.num_nodes = 16;
  config.seed = 5;
  config.num_workers = 1;
  config.disk_dir = ::testing::TempDir();
  GraphZeppelin reference(config);
  ASSERT_TRUE(reference.Init().ok());
  reference.Update({Edge(0, 1), UpdateType::kInsert});
  GraphSnapshot expect = reference.Snapshot();
  GraphSnapshot read = GraphSnapshot::Zero(expect.params());
  ASSERT_TRUE(
      read.MergeSerializedNodeRange(frame.payload.data(), frame.payload.size())
          .ok());
  read.SetUpdates(expect.num_updates());
  EXPECT_TRUE(read == expect);
}

TEST_F(ReaderSessionFixture, RetiredFrameTypesEndOnlyTheReaderSession) {
  Start();
  Configure();
  for (const uint16_t t : kRetiredTypes) {
    ASSERT_TRUE(
        SendFrame(rp_.a(), static_cast<ShardMessageType>(t), nullptr, 0)
            .ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kError);
    bool decode_ok = false;
    const Status s = DecodeShardError(frame.payload.data(),
                                      frame.payload.size(), &decode_ok);
    ASSERT_TRUE(decode_ok);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "type " << t;
    rp_.CloseA();  // As for the writer: the session must already be over.
    reader_thread_.join();
    EXPECT_EQ(reader_status_.code(), StatusCode::kInvalidArgument);
    rp_.Reset();
    StartReader();
  }
  // The writer session never noticed.
  IngestOneEdge();
}

TEST_F(ReaderSessionFixture, ReaderCannotMutateAndSessionSurvives) {
  Start();
  Configure();
  const auto expect_refused = [&](ShardMessageType type, const void* payload,
                                  size_t payload_bytes) {
    ASSERT_TRUE(SendFrame(rp_.a(), type, payload, payload_bytes).ok());
    ShardFrame frame;
    ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
    ASSERT_EQ(frame.type, ShardMessageType::kError)
        << "frame type " << static_cast<uint16_t>(type);
    bool decode_ok = false;
    const Status s = DecodeShardError(frame.payload.data(),
                                      frame.payload.size(), &decode_ok);
    ASSERT_TRUE(decode_ok);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  };
  // The whole write surface: ingest, reconfigure, checkpoint, epoch
  // bump, migration fold-in, retire.
  const uint64_t epoch = 1;
  GraphUpdate u{Edge(2, 3), UpdateType::kInsert};
  std::vector<uint8_t> batch(sizeof(epoch) + sizeof(u));
  std::memcpy(batch.data(), &epoch, sizeof(epoch));
  std::memcpy(batch.data() + sizeof(epoch), &u, sizeof(u));
  expect_refused(ShardMessageType::kUpdateBatch, batch.data(), batch.size());
  expect_refused(ShardMessageType::kFlush, nullptr, 0);
  expect_refused(ShardMessageType::kCheckpoint, nullptr, 0);
  expect_refused(ShardMessageType::kMergeDelta, nullptr, 0);
  expect_refused(ShardMessageType::kShutdown, nullptr, 0);
  // And the refused update never reached the instance...
  ShardFrame frame;
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kStatsReply);
  ShardStatsEx stats;
  ASSERT_TRUE(DecodeShardStatsEx(frame.payload.data(),
                                 frame.payload.size(), &stats)
                  .ok());
  EXPECT_EQ(stats.num_updates, 0u);
  // ...and the writer still works after all those refusals.
  IngestOneEdge();
}

TEST_F(ReaderSessionFixture, UnconfiguredShardRefusesReadsButAnswersPing) {
  Start();
  ShardFrame frame;
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kStatsEx, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kError);
  bool decode_ok = false;
  const Status s = DecodeShardError(frame.payload.data(),
                                    frame.payload.size(), &decode_ok);
  ASSERT_TRUE(decode_ok);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  Configure();
}

TEST_F(ReaderSessionFixture, SubscribeStreamsNotifiesOnPositionChanges) {
  Start();
  Configure();
  // kSubscribe converts the reader session into a notify stream; the
  // immediate first kNotify is the 1:1 reply and carries the current
  // position.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kSubscribe, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kNotify);
  ShardStatsEx stats;
  ASSERT_TRUE(DecodeShardStatsEx(frame.payload.data(),
                                 frame.payload.size(), &stats)
                  .ok());
  EXPECT_EQ(stats.num_updates, 0u);
  EXPECT_EQ(stats.epoch, 1u);
  // Writer ingest pushes a second kNotify without the subscriber
  // sending anything.
  IngestOneEdge();
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kNotify);
  ASSERT_TRUE(DecodeShardStatsEx(frame.payload.data(),
                                 frame.payload.size(), &stats)
                  .ok());
  EXPECT_EQ(stats.num_updates, 1u);
  // Subscriber hangup ends the subscription without disturbing the
  // instance (TearDown's writer shutdown proves the writer survived).
  rp_.CloseA();
  reader_thread_.join();
  EXPECT_FALSE(reader_status_.ok());
}

TEST_F(ReaderSessionFixture, SubscribeRefusedOnUnconfiguredShard) {
  Start();
  // Before kConfig there is no position to subscribe to: kError, and
  // the session continues as a plain reader.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kSubscribe, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kError);
  bool decode_ok = false;
  const Status s = DecodeShardError(frame.payload.data(),
                                    frame.payload.size(), &decode_ok);
  ASSERT_TRUE(decode_ok);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // Unconverted: the same session still answers PING, and a subscribe
  // AFTER configuration converts it.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kPing, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kAck);
  Configure();
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kSubscribe, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kNotify);
}

TEST_F(ReaderSessionFixture, WriterSessionCannotSubscribe) {
  Start();
  Configure();
  // Converting the writer's request/reply stream into a push stream
  // would strand the coordinator: kError, session survives.
  ASSERT_TRUE(
      SendFrame(wp_.a(), ShardMessageType::kSubscribe, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(wp_.a(), &frame).ok());
  ASSERT_EQ(frame.type, ShardMessageType::kError);
  bool decode_ok = false;
  const Status s = DecodeShardError(frame.payload.data(),
                                    frame.payload.size(), &decode_ok);
  ASSERT_TRUE(decode_ok);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  IngestOneEdge();  // The writer still writes.
}

TEST_F(ReaderSessionFixture, NotifyIsNeverAValidRequest) {
  Start();
  Configure();
  // kNotify is a reply-type frame; on the writer stream it draws the
  // generic reply-type refusal and the session survives.
  ASSERT_TRUE(
      SendFrame(wp_.a(), ShardMessageType::kNotify, nullptr, 0).ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(wp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  // On a reader session it is read-only-contract refused the same way.
  ASSERT_TRUE(
      SendFrame(rp_.a(), ShardMessageType::kNotify, nullptr, 0).ok());
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  IngestOneEdge();
}

TEST_F(ReaderSessionFixture, OversizedSubscribeFencesTheSession) {
  // The reader receive cap covers kSubscribe like every other reader
  // request: a huge length prefix is a session fence, not a server
  // allocation.
  Start();
  Configure();
  const std::vector<uint8_t> big(kReaderMaxRequestBytes + 1, 0xEE);
  ASSERT_TRUE(SendFrame(rp_.a(), ShardMessageType::kSubscribe, big.data(),
                        big.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  rp_.CloseA();
  reader_thread_.join();
  EXPECT_FALSE(reader_status_.ok());
}

TEST_F(ReaderSessionFixture, OversizedReaderRequestFencesTheSession) {
  // Reader requests are tiny by construction; the per-session receive
  // cap turns a huge length prefix into a clean session fence instead
  // of a server-side allocation.
  Start();
  Configure();
  const std::vector<uint8_t> big(kReaderMaxRequestBytes + 1, 0xEE);
  ASSERT_TRUE(SendFrame(rp_.a(), ShardMessageType::kStatsEx, big.data(),
                        big.size())
                  .ok());
  ShardFrame frame;
  ASSERT_TRUE(RecvFrame(rp_.a(), &frame).ok());
  EXPECT_EQ(frame.type, ShardMessageType::kError);
  rp_.CloseA();
  reader_thread_.join();
  EXPECT_FALSE(reader_status_.ok());
}

}  // namespace
}  // namespace gz
