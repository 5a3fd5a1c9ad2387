// Serving-tier suite: the epoch/watermark-keyed SnapshotCache behind
// CachedSnapshot(), the multi-session listener, and QuerySession — the
// read-side client that answers queries from shard listeners without
// ever touching the coordinator.
//
// The load-bearing property everywhere: a cached or delta-refreshed
// snapshot must be BITWISE identical to a full re-fold at the same
// (epoch, watermark) position — through ingest, add/split/remove
// schedules, shard kill/restart, and concurrent reader sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "core/graph_zeppelin.h"
#include "distributed/query_session.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_process.h"
#include "distributed/shard_transport.h"
#include "stream/erdos_renyi_generator.h"
#include "tests/shard_substrate.h"
#include "util/check.h"

namespace gz {
namespace {

constexpr uint64_t kNumNodes = 96;
constexpr char kSecret[] = "serving-tier-secret";

GraphZeppelinConfig BaseConfig(uint64_t seed) {
  GraphZeppelinConfig c;
  c.num_nodes = kNumNodes;
  c.seed = seed;
  c.num_workers = 1;
  c.disk_dir = ::testing::TempDir();
  return c;
}

// Insert/delete chaos stream (the reshard suite's shape, smaller).
std::vector<GraphUpdate> BuildStream(uint64_t seed) {
  ErdosRenyiParams ep;
  ep.num_nodes = kNumNodes;
  ep.p = 0.08;
  ep.seed = seed + 1000;
  EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  std::vector<GraphUpdate> updates;
  std::vector<Edge> live;
  uint64_t rng = seed * 7919 + 13;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const Edge& e : edges) {
      updates.push_back({e, UpdateType::kInsert});
      live.push_back(e);
      if (next() % 100 < 30) {
        const size_t pick = next() % live.size();
        updates.push_back({live[pick], UpdateType::kDelete});
        live.erase(live.begin() + pick);
      }
    }
  }
  return updates;
}

// Chunks a refresh pull sweep covers for one shard at this suite's
// nodes-per-chunk granularity.
constexpr uint64_t kChunk = 16;
constexpr uint64_t kChunksPerShard = (kNumNodes + kChunk - 1) / kChunk;

class ServingTierModeTest : public ::testing::TestWithParam<Substrate> {};

TEST_P(ServingTierModeTest, CachedSnapshotBitwiseEqualsFullFold) {
  // The acceptance pin: at every position along an ingest + reshard
  // schedule, CachedSnapshot() == Snapshot() bitwise — sketches AND
  // update count — and a repeat call at an unmoved position is
  // answered with ZERO data pulls.
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = kChunk;
  ShardCluster sharded(BaseConfig(21), 3,
                       OnSubstrate(GetParam(), 3, options));
  ASSERT_TRUE(sharded.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(21);
  const size_t burst = updates.size() / 6 + 1;
  size_t fed = 0;
  const auto feed_burst = [&] {
    const size_t count = std::min(burst, updates.size() - fed);
    EXPECT_TRUE(sharded.Update(updates.data() + fed, count).ok());
    fed += count;
  };
  const auto check_pinned = [&](const char* step) {
    GraphSnapshot full = ClusterSnapshot(&sharded);
    const GraphSnapshot* cached = nullptr;
    Status s = sharded.CachedSnapshot(&cached);
    ASSERT_TRUE(s.ok()) << step << ": " << s.ToString();
    EXPECT_TRUE(*cached == full) << step;
    EXPECT_EQ(cached->num_updates(), full.num_updates()) << step;
    // Nothing moved since: the repeat is served from cache, bitwise
    // identical, zero pulls.
    const uint64_t pulls = sharded.snapshot_cache().range_pulls();
    s = sharded.CachedSnapshot(&cached);
    ASSERT_TRUE(s.ok()) << step;
    EXPECT_TRUE(*cached == full) << step << " (cached repeat)";
    EXPECT_EQ(sharded.snapshot_cache().range_pulls(), pulls)
        << step << ": a fresh cache must not pull";
  };

  feed_burst();
  check_pinned("first burst");
  feed_burst();
  check_pinned("second burst");

  const std::string grow = SubstrateEndpoint(GetParam());
  Result<int> added = sharded.AddShard(grow);
  ASSERT_TRUE(added.ok());
  feed_burst();
  check_pinned("after add");

  ASSERT_TRUE(sharded.SplitShard(0, grow).ok());
  feed_burst();
  check_pinned("after split");

  ASSERT_TRUE(sharded.RemoveShard(added.value()).ok());
  while (fed < updates.size()) feed_burst();
  check_pinned("after remove, stream done");
}

TEST_P(ServingTierModeTest, DeltaRefreshPullsOnlyMovedShards) {
  // Cache freshness is per shard: a reshard that touches shards A and
  // B must refresh by pulling node deltas from A and B ONLY — the
  // unmoved third shard contributes its cached content untouched.
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = kChunk;
  ShardCluster sharded(BaseConfig(33), 3,
                       OnSubstrate(GetParam(), 3, options));
  ASSERT_TRUE(sharded.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(33);
  ASSERT_TRUE(sharded.Update(updates.data(), updates.size()).ok());

  const GraphSnapshot* cached = nullptr;
  ASSERT_TRUE(sharded.CachedSnapshot(&cached).ok());
  const uint64_t cold_pulls = sharded.snapshot_cache().range_pulls();
  EXPECT_EQ(sharded.snapshot_cache().cold_builds(), 1u);
  EXPECT_EQ(cold_pulls, 3 * kChunksPerShard);  // Cold: every shard.

  // A split with no interleaved ingest moves exactly two watermarks:
  // the source (its delta_seq advances per extracted chunk) and the
  // new target.
  ASSERT_TRUE(sharded.SplitShard(0, SubstrateEndpoint(GetParam())).ok());
  ASSERT_TRUE(sharded.CachedSnapshot(&cached).ok());
  EXPECT_EQ(sharded.snapshot_cache().range_pulls() - cold_pulls,
            2 * kChunksPerShard)
      << "refresh must pull from the two moved shards, not all four";
  EXPECT_EQ(sharded.snapshot_cache().cold_builds(), 1u)
      << "a delta refresh must not rebuild from scratch";
  GraphSnapshot full = ClusterSnapshot(&sharded);
  EXPECT_TRUE(*cached == full);
}

INSTANTIATE_TEST_SUITE_P(Modes, ServingTierModeTest,
                         ::testing::Values(Substrate::kThread,
                                           Substrate::kProcess),
                         [](const auto& info) {
                           return SubstrateName(info.param);
                         });

class ServingTierFaultTest : public ::testing::TestWithParam<Substrate> {};

TEST_P(ServingTierFaultTest, CacheServesAtLastPositionWhileShardIsDown) {
  // Watermarks come from the coordinator's own durability bookkeeping,
  // so a FRESH cache answers with zero RPCs even while a shard is down;
  // a refresh that needs the dead shard fails with a precise error; a
  // restart (checkpoint restore + replay) makes the next refresh exact.
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = kChunk;
  ShardCluster cluster(BaseConfig(55), 3,
                       OnSubstrate(GetParam(), 3, options));
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(55);
  const size_t half = updates.size() / 2;
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());  // Replay budget for restart.

  const GraphSnapshot* cached = nullptr;
  ASSERT_TRUE(cluster.CachedSnapshot(&cached).ok());
  Result<GraphSnapshot> full = cluster.Snapshot();
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(*cached == full.value());

  cluster.KillShard(1);
  const uint64_t pulls = cluster.snapshot_cache().range_pulls();
  ASSERT_TRUE(cluster.CachedSnapshot(&cached).ok())
      << "a fresh cache must serve with a shard down";
  EXPECT_TRUE(*cached == full.value());
  EXPECT_EQ(cluster.snapshot_cache().range_pulls(), pulls);

  // Push the position forward; the refresh now needs the dead shard.
  (void)cluster.Update(updates.data() + half, updates.size() - half);
  const Status stale = cluster.CachedSnapshot(&cached);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.message().find("down"), std::string::npos);

  ASSERT_TRUE(cluster.RestartShard(1).ok());
  ASSERT_TRUE(cluster.CachedSnapshot(&cached).ok());
  full = cluster.Snapshot();
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(*cached == full.value())
      << "post-restart refresh must fold replayed state exactly";
  ASSERT_TRUE(cluster.Shutdown().ok());
}

INSTANTIATE_TEST_SUITE_P(Substrates, ServingTierFaultTest,
                         ::testing::Values(Substrate::kThread,
                                           Substrate::kProcess),
                         [](const auto& info) {
                           return SubstrateName(info.param);
                         });

TEST(ServingTierSessionTest, ReaderRefusesThreadAndLocalEndpoints) {
  // A thread: or local: shard is one writer session on a socketpair —
  // there is no listener for a reader to dial. Connect() must refuse
  // such an endpoint up front, naming it, rather than try to dial it.
  for (const char* endpoint : {"thread:", "local:"}) {
    QuerySessionOptions qo;
    qo.endpoints = {endpoint};
    QuerySession session(qo);
    const Status s = session.Connect();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << endpoint;
    EXPECT_NE(s.message().find(endpoint), std::string::npos) << s.ToString();
  }
}

// ---- TCP serving tier -----------------------------------------------------

// Listener fleet + coordinator + QuerySession readers over loopback.
class ServingTierTcpTest : public ::testing::Test {
 protected:
  void StartFleet(int num_shards) {
    GZ_CHECK_OK(StartListenerShards(
        DefaultShardBinary(), num_shards, ::testing::TempDir(),
        ::testing::TempDir() + "/gz_serving_l", kSecret, &listeners_,
        &endpoints_));
  }
  QuerySessionOptions ReaderOptions(const std::string& secret = kSecret) {
    QuerySessionOptions qo;
    qo.endpoints = endpoints_;
    qo.auth_secret = secret;
    qo.nodes_per_chunk = kChunk;
    return qo;
  }
  std::vector<std::unique_ptr<ListenerShard>> listeners_;
  std::vector<std::string> endpoints_;
};

TEST_F(ServingTierTcpTest, ConcurrentReadersStayBitwiseExactThroughASplit) {
  // The chaos drill: reader sessions hammer the fleet while the
  // coordinator ingests and runs a live BeginSplitShard migration.
  // Every successfully served answer came off the seqlock at ONE
  // position; at quiesce points reader answers are bitwise equal to
  // the coordinator's full fold. A reader killed mid-session and a
  // reader with the wrong secret disturb nothing.
  StartFleet(3);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  options.migrate_nodes_per_chunk = kChunk;
  ShardCluster sharded(BaseConfig(77), 3, options);
  ASSERT_TRUE(sharded.Start().ok());
  // A fourth listener for the split target: the new shard must serve
  // readers too, so it gets a real endpoint rather than a local child.
  std::vector<std::string> grown_endpoints;
  GZ_CHECK_OK(StartListenerShards(
      DefaultShardBinary(), 1, ::testing::TempDir(),
      ::testing::TempDir() + "/gz_serving_x", kSecret, &listeners_,
      &grown_endpoints));

  const std::vector<GraphUpdate> updates = BuildStream(77);
  const size_t half = updates.size() / 2;
  ASSERT_TRUE(sharded.Update(updates.data(), half).ok());
  ASSERT_TRUE(sharded.Flush().ok());

  // Quiesced bitwise pin, reader vs coordinator.
  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  Status s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  {
    GraphSnapshot full = ClusterSnapshot(&sharded);
    EXPECT_TRUE(*served == full);
    EXPECT_EQ(served->num_updates(), full.num_updates());
  }
  // Unmoved position: answered from the reader's cache, zero pulls.
  const uint64_t pulls = session.cache().range_pulls();
  ASSERT_TRUE(session.Snapshot(&served).ok());
  EXPECT_EQ(session.cache().range_pulls(), pulls);
  EXPECT_EQ(session.last_refresh_rounds(), 1);

  // Wrong-secret reader drill: refused at the handshake, before any
  // frame of graph state moves.
  {
    QuerySession intruder(ReaderOptions("not-the-secret"));
    EXPECT_FALSE(intruder.Connect().ok());
  }

  // Chaos phase: 2 reader threads query continuously while the
  // coordinator splits shard 0 with ingest between pump steps.
  std::atomic<bool> stop{false};
  std::atomic<int> served_ok{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      QuerySession qs(ReaderOptions());
      if (!qs.Connect().ok()) return;
      while (!stop.load()) {
        Result<ConnectivityResult> cc = qs.Connectivity(1);
        // A moving position may legitimately exhaust the seqlock's
        // retry budget mid-migration; any served answer must be a
        // coherent snapshot (Boruvka on garbage would fail/crash).
        if (cc.ok()) {
          served_ok.fetch_add(1);
          EXPECT_FALSE(cc.value().failed) << "reader " << r;
        }
      }
    });
  }
  // A reader killed mid-flight: connect, query once, vanish abruptly.
  {
    QuerySession doomed(ReaderOptions());
    ASSERT_TRUE(doomed.Connect().ok());
    const GraphSnapshot* snap = nullptr;
    ASSERT_TRUE(doomed.Snapshot(&snap).ok());
  }  // Dtor drops all its connections with no goodbye.

  Result<int> target = sharded.BeginSplitShard(0, grown_endpoints[0]);
  ASSERT_TRUE(target.ok());
  size_t fed = half;
  while (sharded.migration_active()) {
    const size_t count = std::min<size_t>(64, updates.size() - fed);
    if (count > 0) {
      EXPECT_TRUE(sharded.Update(updates.data() + fed, count).ok());
      fed += count;
    }
    ASSERT_TRUE(sharded.PumpMigration().ok());
  }
  while (fed < updates.size()) {
    const size_t count = std::min<size_t>(256, updates.size() - fed);
    EXPECT_TRUE(sharded.Update(updates.data() + fed, count).ok());
    fed += count;
  }
  EXPECT_TRUE(sharded.Flush().ok());
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(served_ok.load(), 0) << "no reader ever served an answer";

  // Quiesce again. The cluster gained a listener, so a session must
  // (re-)connect with the full endpoint set — the documented contract —
  // and then serve the post-split position bitwise.
  std::vector<std::string> all_endpoints = endpoints_;
  all_endpoints.push_back(grown_endpoints[0]);
  QuerySessionOptions grown_options = ReaderOptions();
  grown_options.endpoints = all_endpoints;
  QuerySession grown_session(std::move(grown_options));
  ASSERT_TRUE(grown_session.Connect().ok());
  s = grown_session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  GraphSnapshot full = ClusterSnapshot(&sharded);
  EXPECT_TRUE(*served == full);
  EXPECT_EQ(served->num_updates(), updates.size());

  // And the writer path survived every reader drill above.
  const ConnectivityResult coord = ClusterForest(&sharded);
  const ConnectivityResult reader_cc = Connectivity(*served, 1);
  ASSERT_FALSE(coord.failed);
  ASSERT_FALSE(reader_cc.failed);
  EXPECT_EQ(coord.num_components, reader_cc.num_components);
}

TEST_F(ServingTierTcpTest, SessionLimitRefusesTheOverflowReaderCleanly) {
  // Bounded sessions: with GZ_SHARD_MAX_SESSIONS=2 the third session
  // is refused with a clean kResourceExhausted error — not a hang, not
  // a silent close — and the admitted sessions keep working.
  ::setenv("GZ_SHARD_MAX_SESSIONS", "2", 1);
  StartFleet(1);
  ::unsetenv("GZ_SHARD_MAX_SESSIONS");
  const Result<ShardEndpoint> ep = ParseShardEndpoint(endpoints_[0]);
  ASSERT_TRUE(ep.ok());
  TcpShardTransport first(ep.value(), kSecret, ShardSessionRole::kReader);
  TcpShardTransport second(ep.value(), kSecret, ShardSessionRole::kReader);
  ASSERT_TRUE(first.Connect().ok());
  ASSERT_TRUE(second.Connect().ok());
  TcpShardTransport overflow(ep.value(), kSecret,
                             ShardSessionRole::kReader);
  const Status s = overflow.Connect();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("session limit"), std::string::npos);
  // The admitted sessions still answer.
  ShardAck ack;
  EXPECT_TRUE(
      first.CallAck(ShardMessageType::kPing, nullptr, 0, &ack).ok());
  EXPECT_TRUE(
      second.CallAck(ShardMessageType::kPing, nullptr, 0, &ack).ok());
}

TEST_F(ServingTierTcpTest, StalledPreAuthPeerDoesNotBlockTheWriter) {
  // The DoS window the multi-session listener closes: a peer that
  // connects and goes silent — pre-handshake, or mid-frame as a reader
  // — stalls only its own session thread. The coordinator connects,
  // configures and serves regardless.
  StartFleet(1);
  const Result<ShardEndpoint> ep = ParseShardEndpoint(endpoints_[0]);
  ASSERT_TRUE(ep.ok());

  // Silent pre-auth connection, parked for the whole test.
  struct addrinfo hints = {}, *addrs = nullptr;
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  const std::string port = std::to_string(ep.value().port);
  ASSERT_EQ(::getaddrinfo("127.0.0.1", port.c_str(), &hints, &addrs), 0);
  const int silent_fd =
      ::socket(addrs->ai_family, addrs->ai_socktype, addrs->ai_protocol);
  ASSERT_GE(silent_fd, 0);
  ASSERT_EQ(::connect(silent_fd, addrs->ai_addr, addrs->ai_addrlen), 0);
  ::freeaddrinfo(addrs);

  // The writer attaches and operates THROUGH the stalled peer's window.
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster cluster(BaseConfig(91), 1, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(91);
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());

  // A reader stalled MID-FRAME (header only, payload never comes)
  // likewise stalls only itself.
  TcpShardTransport stalled(ep.value(), kSecret,
                            ShardSessionRole::kReader);
  ASSERT_TRUE(stalled.Connect().ok());
  const uint8_t partial[4] = {0x47, 0x5A, 0x53, 0x50};  // Header prefix.
  ASSERT_EQ(::send(stalled.fd(), partial, sizeof(partial), MSG_NOSIGNAL),
            4);

  Result<ShardStats> stats = cluster.Stats(0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().num_updates, updates.size());
  // A well-behaved reader admitted alongside the two stalled peers is
  // served normally.
  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  ASSERT_TRUE(session.Snapshot(&served).ok());
  Result<GraphSnapshot> full = cluster.Snapshot();
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(*served == full.value());
  ::close(silent_fd);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, SilentListenerYieldsDeadlineExceededNotAHang) {
  // The reader-hang bug: a listener that accepts and AUTHENTICATES,
  // then never answers another byte, used to park the QuerySession in
  // a blocking recv() forever. With a receive deadline the stalled
  // request fails with DeadlineExceeded in bounded time, and the dead
  // connection is excluded from later sweeps instead of re-hanging.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd,
                          reinterpret_cast<struct sockaddr*>(&addr),
                          &addr_len),
            0);
  const int port = ntohs(addr.sin_port);

  // The impostor: speaks the v3 handshake honestly, then goes mute.
  std::atomic<bool> stop{false};
  std::atomic<int> session_fd{-1};
  std::thread silent_listener([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    session_fd.store(fd);
    if (!ServerHandshake(fd, kSecret).ok()) return;
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  QuerySessionOptions qo;
  qo.endpoints = {"tcp://127.0.0.1:" + std::to_string(port)};
  qo.auth_secret = kSecret;
  qo.nodes_per_chunk = kChunk;
  qo.receive_deadline_seconds = 1;
  QuerySession session(qo);
  ASSERT_TRUE(session.Connect().ok());  // Handshake really completes.

  const auto t0 = std::chrono::steady_clock::now();
  const GraphSnapshot* served = nullptr;
  Status s = session.Snapshot(&served);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
  // Bounded: one deadline (1s) plus slack, nowhere near a hang.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed)
                .count(),
            10);

  // The connection is now marked dead: later probes fail fast with the
  // saved error instead of waiting out another deadline.
  const auto t1 = std::chrono::steady_clock::now();
  bool fresh = false;
  s = session.PollPositions(&fresh);
  const auto poll_elapsed = std::chrono::steady_clock::now() - t1;
  EXPECT_FALSE(s.ok());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                poll_elapsed)
                .count(),
            1000);

  stop.store(true);
  if (session_fd.load() >= 0) ::close(session_fd.load());
  ::close(listen_fd);
  silent_listener.join();
}

TEST_F(ServingTierTcpTest, DuplicateShardIdIsAnErrorFromPollAndSnapshot) {
  // Misconfiguration drill: two UNRELATED single-shard clusters both
  // serve shard id 0 at replication 1. A session dialed across both is
  // pointed at garbage — Snapshot() always said so, and PollPositions()
  // must report the same FailedPrecondition rather than disguising the
  // config error as mere staleness.
  StartFleet(2);
  ShardClusterOptions options_a;
  options_a.auth_secret = kSecret;
  options_a.shard_endpoints = {endpoints_[0]};
  ShardCluster cluster_a(BaseConfig(101), 1, options_a);
  ASSERT_TRUE(cluster_a.Start().ok());
  ShardClusterOptions options_b;
  options_b.auth_secret = kSecret;
  options_b.shard_endpoints = {endpoints_[1]};
  // Same config on purpose: identical geometry gets PAST the
  // geometry-agreement check, so the duplicate id itself must trip.
  ShardCluster cluster_b(BaseConfig(101), 1, options_b);
  ASSERT_TRUE(cluster_b.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(101);
  ASSERT_TRUE(cluster_a.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster_b.Update(updates.data(), updates.size()).ok());

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  Status s = session.Snapshot(&served);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("serve shard id"), std::string::npos)
      << s.ToString();

  bool fresh = true;
  s = session.PollPositions(&fresh);
  ASSERT_FALSE(s.ok()) << "a misconfigured session must not poll Ok";
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("serve shard id"), std::string::npos)
      << s.ToString();

  ASSERT_TRUE(cluster_a.Shutdown().ok());
  ASSERT_TRUE(cluster_b.Shutdown().ok());
}

TEST_F(ServingTierTcpTest, ReaderFailsOverToAliveReplicaMidSweep) {
  // Replication on the read side: both replicas of one shard serve
  // readers, and a session dialed across both survives the death of
  // either listener — the position sweep and the content pulls fail
  // over to the live group member, bitwise-identically. Only when the
  // LAST replica dies does the session surface an error.
  StartFleet(2);  // Two listeners, ONE shard at R=2 (shard-major).
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  options.replication_factor = 2;
  ShardCluster cluster(BaseConfig(111), 1, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(111);
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  Result<GraphSnapshot> full = cluster.Snapshot();
  ASSERT_TRUE(full.ok());

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const GraphSnapshot* served = nullptr;
  Status s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(*served == full.value());

  // Replica 0's listener dies mid-session. The sweep marks its
  // connection dead and the group's surviving member answers.
  listeners_[0]->Stop();
  s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << "one live replica left: " << s.ToString();
  EXPECT_TRUE(*served == full.value());

  // The last replica dies: now the shard is genuinely uncovered and
  // the session says so instead of serving a stale answer as fresh.
  listeners_[1]->Stop();
  EXPECT_FALSE(session.Snapshot(&served).ok());
  cluster.Shutdown();  // Both children are already gone; best effort.
}

TEST_F(ServingTierTcpTest, PipelinedPullsAcrossReplicaGroupsStayBitwise) {
  // The staged pulls go out to every planned shard before any reply is
  // read, chunk after chunk. Two shards at R=2, six chunks each: shard
  // 0's first replica dies after the session learned the groups, so
  // its chunks come from the survivor while shard 1's come from its
  // first replica — and the fold is still the writer's, bit for bit.
  StartFleet(4);  // Shard-major: endpoints 0-1 serve shard 0, 2-3 shard 1.
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  options.replication_factor = 2;
  ShardCluster cluster(BaseConfig(131), 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<GraphUpdate> updates = BuildStream(131);
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  Result<GraphSnapshot> full = cluster.Snapshot();
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  bool fresh = true;
  ASSERT_TRUE(session.PollPositions(&fresh).ok());  // Learns the groups.
  EXPECT_FALSE(fresh);
  listeners_[0]->Stop();
  const GraphSnapshot* served = nullptr;
  const Status s = session.Snapshot(&served);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(*served == full.value());
  EXPECT_EQ(session.cache().range_pulls(), 2 * kChunksPerShard);
  EXPECT_EQ(session.cache().cold_builds(), 1u);
  cluster.Shutdown();  // One child is already gone; best effort.
}

}  // namespace
}  // namespace gz
