// Standing-query suite: the registry's answer-diff contract, the
// coordinator evaluation surface, and the push-notified watch over the
// serving tier.
//
// The load-bearing property everywhere: every notification's answer is
// bitwise-equal to a fresh connectivity fold of the snapshot it was
// evaluated from, at the position it reports — through ingest, a live
// split migration, and a replica SIGKILL with active subscriptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baseline/matrix_checker.h"
#include "core/connectivity.h"
#include "core/graph_zeppelin.h"
#include "core/standing_query.h"
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
constexpr char kSecret[] = "standing-query-secret";

GraphZeppelinConfig BaseConfig(uint64_t seed, uint64_t num_nodes = kNumNodes) {
  GraphZeppelinConfig c;
  c.num_nodes = num_nodes;
  c.seed = seed;
  c.num_workers = 1;
  c.disk_dir = ::testing::TempDir();
  return c;
}

// The bitwise bar: re-fold the snapshot the notification reports (at a
// DIFFERENT thread count than the evaluation used — the fold is
// bitwise-deterministic for any count) and re-derive the answer; it
// must equal the notified answer structurally.
void VerifyNotificationBitwise(const StandingQueryNotification& n,
                               const GraphSnapshot& snapshot) {
  EXPECT_EQ(snapshot.num_updates(), n.num_updates);
  const ConnectivityResult fresh = Connectivity(snapshot, 2);
  ASSERT_FALSE(fresh.failed) << "fresh fold failed at the notified position";
  const StandingQueryAnswer want = DeriveStandingAnswer(n.spec, fresh);
  EXPECT_TRUE(n.answer == want)
      << "notification (query " << n.query_id << ", seq " << n.sequence
      << ", updates " << n.num_updates
      << ") disagrees with a fresh fold of its own snapshot";
}

// Insert/delete chaos stream (the serving suite's shape).
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
  for (const Edge& e : edges) {
    updates.push_back({e, UpdateType::kInsert});
    live.push_back(e);
    if (next() % 100 < 30) {
      const size_t pick = next() % live.size();
      updates.push_back({live[pick], UpdateType::kDelete});
      live.erase(live.begin() + pick);
    }
  }
  return updates;
}

// ---- Registry -------------------------------------------------------------

class StandingQueryRegistryTest : public ::testing::Test {
 protected:
  // One graph instance; Snapshot() at successive positions gives the
  // registry a sequence of evaluation inputs.
  void SetUp() override {
    gz_ = std::make_unique<GraphZeppelin>(BaseConfig(5, 16));
    ASSERT_TRUE(gz_->Init().ok());
  }

  GraphSnapshot SnapAfter(const std::vector<GraphUpdate>& updates) {
    for (const GraphUpdate& u : updates) gz_->Update(u);
    return gz_->Snapshot();
  }

  // Evaluate + collect, verifying every notification bitwise.
  size_t Evaluate(StandingQueryRegistry* reg, const GraphSnapshot& snap,
                  uint64_t epoch) {
    const Result<size_t> fired = reg->Evaluate(
        snap, epoch, 1,
        [this](const StandingQueryNotification& n,
               const GraphSnapshot& snapshot) {
          VerifyNotificationBitwise(n, snapshot);
          fired_.push_back(n);
        });
    GZ_CHECK_OK(fired.status());
    return fired.value();
  }

  std::unique_ptr<GraphZeppelin> gz_;
  std::vector<StandingQueryNotification> fired_;
};

TEST_F(StandingQueryRegistryTest, FirstEvaluationNotifiesEveryQuery) {
  StandingQueryRegistry reg;
  const uint64_t connected_id =
      reg.Add({StandingQueryKind::kConnected, 0, 1});
  reg.Add({StandingQueryKind::kComponentCount, 0, 0});
  reg.Add({StandingQueryKind::kSpanningForest, 0, 0});
  EXPECT_TRUE(reg.HasUnevaluated());

  const GraphSnapshot snap =
      SnapAfter({{Edge(0, 1), UpdateType::kInsert}});
  EXPECT_EQ(Evaluate(&reg, snap, 1), 3u);
  EXPECT_FALSE(reg.HasUnevaluated());
  ASSERT_EQ(fired_.size(), 3u);
  for (const StandingQueryNotification& n : fired_) {
    EXPECT_EQ(n.sequence, 1u) << "initial answers are sequence 1";
    EXPECT_EQ(n.epoch, 1u);
    EXPECT_EQ(n.num_updates, 1u);
    if (n.query_id == connected_id) {
      EXPECT_TRUE(n.answer.connected);
    }
    if (n.spec.kind == StandingQueryKind::kSpanningForest) {
      EXPECT_TRUE(std::is_sorted(n.answer.forest.begin(),
                                 n.answer.forest.end()))
          << "forest answers are canonicalized";
    }
  }
  // Same position again: one more fold, zero notifications.
  EXPECT_EQ(Evaluate(&reg, snap, 1), 0u);
  EXPECT_EQ(reg.evaluations(), 2u);
  EXPECT_EQ(reg.notifications(), 3u);
}

TEST_F(StandingQueryRegistryTest, ChangedAnswersNotifyAndCoalesce) {
  StandingQueryRegistry reg;
  const uint64_t id = reg.Add({StandingQueryKind::kConnected, 0, 2});
  const GraphSnapshot s1 =
      SnapAfter({{Edge(0, 1), UpdateType::kInsert}});
  const GraphSnapshot s2 =
      SnapAfter({{Edge(1, 2), UpdateType::kInsert}});
  const GraphSnapshot s3 =
      SnapAfter({{Edge(1, 2), UpdateType::kDelete}});

  EXPECT_EQ(Evaluate(&reg, s1, 1), 1u);  // Initial: not connected.
  EXPECT_FALSE(fired_.back().answer.connected);
  EXPECT_EQ(Evaluate(&reg, s2, 1), 1u);  // Flipped: connected.
  EXPECT_TRUE(fired_.back().answer.connected);
  EXPECT_EQ(fired_.back().sequence, 2u);
  EXPECT_EQ(Evaluate(&reg, s3, 1), 1u);  // Flipped back.
  EXPECT_FALSE(fired_.back().answer.connected);
  EXPECT_EQ(fired_.back().sequence, 3u);

  // Coalescing: a fresh registry evaluating s1 then s3 — the answer
  // went false -> true -> false entirely BETWEEN evaluations, so
  // nothing fires at s3 (same answer as last notified, only the
  // position moved).
  StandingQueryRegistry fresh;
  fresh.Add({StandingQueryKind::kConnected, 0, 2});
  EXPECT_EQ(Evaluate(&fresh, s1, 1), 1u);
  EXPECT_EQ(Evaluate(&fresh, s3, 1), 0u);

  // Remove: the id is gone (idempotently), and nothing fires for it.
  EXPECT_TRUE(reg.Remove(id));
  EXPECT_FALSE(reg.Remove(id));
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(Evaluate(&reg, s2, 1), 0u);
}

TEST_F(StandingQueryRegistryTest, LateAddedQueryGetsItsInitialAnswer) {
  StandingQueryRegistry reg;
  reg.Add({StandingQueryKind::kComponentCount, 0, 0});
  const GraphSnapshot snap =
      SnapAfter({{Edge(0, 1), UpdateType::kInsert}});
  EXPECT_EQ(Evaluate(&reg, snap, 1), 1u);
  // A new query at an UNMOVED position: HasUnevaluated() tells the
  // driver to evaluate anyway, and only the newcomer fires.
  reg.Add({StandingQueryKind::kConnected, 0, 1});
  EXPECT_TRUE(reg.HasUnevaluated());
  EXPECT_EQ(Evaluate(&reg, snap, 1), 1u);
  EXPECT_EQ(fired_.back().sequence, 1u);
  EXPECT_TRUE(fired_.back().answer.connected);
}

// ---- Coordinator surface --------------------------------------------------

class StandingQueryCoordinatorTest
    : public ::testing::TestWithParam<Substrate> {};

TEST_P(StandingQueryCoordinatorTest, EvaluationsBitwiseVerifiableMidStream) {
  ShardCluster sharded(BaseConfig(33), 3, OnSubstrate(GetParam(), 3));
  ASSERT_TRUE(sharded.Start().ok());
  StandingQueryRegistry& reg = sharded.standing_queries();
  reg.Add({StandingQueryKind::kConnected, 0, 5});
  reg.Add({StandingQueryKind::kComponentCount, 0, 0});
  reg.Add({StandingQueryKind::kSpanningForest, 0, 0});

  const std::vector<GraphUpdate> updates = BuildStream(33);
  AdjacencyMatrixChecker checker(kNumNodes);
  std::vector<StandingQueryNotification> fired;
  const auto notifier = [&fired](const StandingQueryNotification& n,
                                 const GraphSnapshot& snapshot) {
    VerifyNotificationBitwise(n, snapshot);
    fired.push_back(n);
  };

  const size_t burst = updates.size() / 5 + 1;
  size_t fed = 0;
  size_t last_components = 0;
  while (fed < updates.size()) {
    const size_t count = std::min(burst, updates.size() - fed);
    ASSERT_TRUE(sharded.Update(updates.data() + fed, count).ok());
    for (size_t i = 0; i < count; ++i) checker.Update(updates[fed + i]);
    fed += count;
    const Result<size_t> n = sharded.EvaluateStandingQueries(1, notifier);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    // The exact-answer pin, against the dense baseline: the component
    // count notified at this position (or the unchanged one standing
    // since an earlier burst) is the true count.
    for (auto it = fired.rbegin(); it != fired.rend(); ++it) {
      if (it->spec.kind == StandingQueryKind::kComponentCount) {
        last_components = it->answer.num_components;
        break;
      }
    }
    EXPECT_EQ(last_components,
              checker.ConnectedComponents().num_components)
        << "after " << fed << " updates";
  }
  EXPECT_GE(fired.size(), 3u);  // At least every initial answer.
  // An evaluation at the final (unmoved) position fires nothing.
  const Result<size_t> again = sharded.EvaluateStandingQueries(1, notifier);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, StandingQueryCoordinatorTest,
    ::testing::Values(Substrate::kThread, Substrate::kProcess),
    [](const ::testing::TestParamInfo<Substrate>& info) {
      return SubstrateName(info.param);
    });

// ---- Chaos: a live split under standing queries ---------------------------

class StandingQueryClusterTest : public ::testing::TestWithParam<Substrate> {
 protected:
  ShardClusterOptions MakeOptions(int num_shards) {
    ShardClusterOptions options;
    options.migrate_nodes_per_chunk = 16;
    return shards_.Place(num_shards, options);
  }

  SubstrateShards shards_{GetParam(), kSecret};
};

TEST_P(StandingQueryClusterTest, NotificationsStayExactThroughASplit) {
  // The tentpole drill, coordinator-driven: standing queries evaluated
  // between pump steps of a LIVE BeginSplitShard migration, with
  // ingest interleaved. Every notification must pass the bitwise bar
  // at its own position, and the component count must track the dense
  // baseline at every evaluated position.
  ShardCluster sharded(BaseConfig(55), 3, MakeOptions(3));
  ASSERT_TRUE(sharded.Start().ok());
  StandingQueryRegistry& reg = sharded.standing_queries();
  reg.Add({StandingQueryKind::kConnected, 1, 2});
  reg.Add({StandingQueryKind::kComponentCount, 0, 0});
  reg.Add({StandingQueryKind::kSpanningForest, 0, 0});

  const std::vector<GraphUpdate> updates = BuildStream(55);
  AdjacencyMatrixChecker checker(kNumNodes);
  size_t last_components = 0;
  std::vector<StandingQueryNotification> fired;
  const auto notifier = [&fired](const StandingQueryNotification& n,
                                 const GraphSnapshot& snapshot) {
    VerifyNotificationBitwise(n, snapshot);
    fired.push_back(n);
  };
  const auto evaluate_and_pin = [&](const char* step) {
    const Result<size_t> n = sharded.EvaluateStandingQueries(1, notifier);
    ASSERT_TRUE(n.ok()) << step << ": " << n.status().ToString();
    for (auto it = fired.rbegin(); it != fired.rend(); ++it) {
      if (it->spec.kind == StandingQueryKind::kComponentCount) {
        last_components = it->answer.num_components;
        break;
      }
    }
    EXPECT_EQ(last_components,
              checker.ConnectedComponents().num_components)
        << step;
  };
  const auto feed = [&](size_t from, size_t count) {
    EXPECT_TRUE(sharded.Update(updates.data() + from, count).ok());
    for (size_t i = 0; i < count; ++i) checker.Update(updates[from + i]);
  };

  const size_t half = updates.size() / 2;
  feed(0, half);
  evaluate_and_pin("pre-split");

  Result<int> target = sharded.BeginSplitShard(0, shards_.Grow());
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  size_t fed = half;
  int pumps = 0;
  while (sharded.migration_active()) {
    const size_t count = std::min<size_t>(48, updates.size() - fed);
    if (count > 0) {
      feed(fed, count);
      fed += count;
    }
    ASSERT_TRUE(sharded.PumpMigration().ok());
    // Evaluate on a cadence MID-migration: standing queries must stay
    // exact while chunks are in flight.
    if (++pumps % 3 == 0) evaluate_and_pin("mid-split");
  }
  if (fed < updates.size()) {
    feed(fed, updates.size() - fed);
  }
  sharded.Flush();
  evaluate_and_pin("post-split");
  EXPECT_GE(fired.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, StandingQueryClusterTest,
    ::testing::Values(Substrate::kThread, Substrate::kProcess,
                      Substrate::kTcp),
    [](const ::testing::TestParamInfo<Substrate>& info) {
      return SubstrateName(info.param);
    });

// ---- The push-notified watch over the serving tier ------------------------

class StandingQueryWatchTest : public ::testing::Test {
 protected:
  void StartFleet(int num_listeners) {
    GZ_CHECK_OK(StartListenerShards(
        DefaultShardBinary(), num_listeners, ::testing::TempDir(),
        ::testing::TempDir() + "/gz_standing_w", kSecret, &listeners_,
        &endpoints_));
  }
  QuerySessionOptions ReaderOptions() {
    QuerySessionOptions qo;
    qo.endpoints = endpoints_;
    qo.auth_secret = kSecret;
    qo.nodes_per_chunk = 16;
    return qo;
  }
  // Spin until `done` holds or the deadline passes.
  template <typename Pred>
  bool WaitFor(Pred done, int timeout_ms = 15000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!done()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return true;
  }

  std::vector<std::unique_ptr<ListenerShard>> listeners_;
  std::vector<std::string> endpoints_;
};

TEST_F(StandingQueryWatchTest, PushNotifiedWatchSurvivesReplicaKill) {
  // The serving-tier tentpole drill: a QuerySession watch with live
  // kSubscribe push streams, against ONE shard at R=2. Subscriptions
  // must stay live and every notification bitwise-exact through a
  // replica SIGKILL with the watch running.
  StartFleet(2);  // Two listeners, one shard id, shard-major at R=2.
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  options.replication_factor = 2;
  ShardCluster cluster(BaseConfig(111), 1, options);
  ASSERT_TRUE(cluster.Start().ok());

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  const uint64_t connected_id =
      session.AddStandingQuery({StandingQueryKind::kConnected, 0, 1});
  session.AddStandingQuery({StandingQueryKind::kComponentCount, 0, 0});

  std::mutex mu;
  std::vector<StandingQueryNotification> fired;
  std::atomic<int> verify_failures{0};
  StandingWatchOptions watch;
  watch.poll_interval_ms = 100;
  watch.subscribe = true;
  ASSERT_TRUE(session
                  .StartWatch(watch,
                              [&](const StandingQueryNotification& n,
                                  const GraphSnapshot& snapshot) {
                                // gtest EXPECTs are thread-safe enough
                                // for counting, but keep a hard counter
                                // too so the main thread can assert.
                                const size_t before =
                                    ::testing::Test::HasFailure() ? 1 : 0;
                                VerifyNotificationBitwise(n, snapshot);
                                if (!before && ::testing::Test::HasFailure()) {
                                  verify_failures.fetch_add(1);
                                }
                                std::lock_guard<std::mutex> lock(mu);
                                fired.push_back(n);
                              })
                  .ok());
  // Both replicas accept the subscription (opened asynchronously on
  // the watcher thread, so wait rather than assert immediately).
  EXPECT_TRUE(WaitFor([&] { return session.watch_notify_streams() == 2; }))
      << "push subscriptions never came up on both replicas";

  const auto notified = [&](auto pred) {
    std::lock_guard<std::mutex> lock(mu);
    return std::any_of(fired.begin(), fired.end(), pred);
  };
  // Initial answers arrive without any ingest.
  ASSERT_TRUE(WaitFor([&] {
    return session.watch_notifications() >= 2;
  })) << "initial answers never arrived";

  // A pushed change: insert (0,1); the connected watch must flip.
  const GraphUpdate connect01{Edge(0, 1), UpdateType::kInsert};
  ASSERT_TRUE(cluster.Update(&connect01, 1).ok());
  ASSERT_TRUE(WaitFor([&] {
    return notified([&](const StandingQueryNotification& n) {
      return n.query_id == connected_id && n.answer.connected;
    });
  })) << "connected(0,1) flip was never pushed";

  // Replica 0 dies by SIGKILL, subscriptions active. The watch drops
  // that notify stream and keeps running off the survivor.
  listeners_[0]->Stop();

  // More changes after the kill: the surviving replica's pushes (or
  // the cadence fallback) must still deliver them, bitwise-exact.
  const std::vector<GraphUpdate> more = {
      {Edge(1, 2), UpdateType::kInsert},
      {Edge(2, 3), UpdateType::kInsert},
  };
  // The fan-out to the dead replica fences it; the live one ingests.
  (void)cluster.Update(more.data(), more.size());
  ASSERT_TRUE(WaitFor([&] {
    return notified([&](const StandingQueryNotification& n) {
      return n.spec.kind == StandingQueryKind::kComponentCount &&
             n.num_updates == 3;
    });
  })) << "no component-count notification at the final position";

  const size_t streams = session.watch_notify_streams();
  EXPECT_LE(streams, 1u) << "the killed replica's stream must be dropped";
  session.StopWatch();
  EXPECT_EQ(verify_failures.load(), 0);
  // The final answers, pinned against an identical-seed reference
  // instance: merged shard content is bitwise the single-instance
  // sketch, so the folds agree exactly.
  GraphZeppelin ref(BaseConfig(111));
  ASSERT_TRUE(ref.Init().ok());
  ref.Update(connect01);
  for (const GraphUpdate& u : more) ref.Update(u);
  const ConnectivityResult want = ref.ListSpanningForest();
  ASSERT_FALSE(want.failed);
  std::lock_guard<std::mutex> lock(mu);
  for (auto it = fired.rbegin(); it != fired.rend(); ++it) {
    if (it->spec.kind == StandingQueryKind::kComponentCount &&
        it->num_updates == 3) {
      EXPECT_EQ(it->answer.num_components, want.num_components);
      break;
    }
  }
  cluster.Shutdown();  // One child is already gone; best effort.
}

TEST_F(StandingQueryWatchTest, PollOnlyWatchDeliversWithoutSubscriptions) {
  // --no-subscribe degenerates to pure cadence polling; the delivery
  // contract is identical, just later.
  StartFleet(1);
  ShardClusterOptions options;
  options.auth_secret = kSecret;
  options.shard_endpoints = endpoints_;
  ShardCluster cluster(BaseConfig(17), 1, options);
  ASSERT_TRUE(cluster.Start().ok());

  QuerySession session(ReaderOptions());
  ASSERT_TRUE(session.Connect().ok());
  session.AddStandingQuery({StandingQueryKind::kComponentCount, 0, 0});
  std::atomic<int> verify_failures{0};
  StandingWatchOptions watch;
  watch.poll_interval_ms = 50;
  watch.subscribe = false;
  ASSERT_TRUE(session
                  .StartWatch(watch,
                              [&](const StandingQueryNotification& n,
                                  const GraphSnapshot& snapshot) {
                                VerifyNotificationBitwise(n, snapshot);
                              })
                  .ok());
  EXPECT_EQ(session.watch_notify_streams(), 0u);
  ASSERT_TRUE(WaitFor([&] {
    return session.watch_notifications() >= 1;
  })) << "initial answer never arrived by polling";
  const GraphUpdate u{Edge(4, 5), UpdateType::kInsert};
  ASSERT_TRUE(cluster.Update(&u, 1).ok());
  ASSERT_TRUE(WaitFor([&] {
    return session.watch_notifications() >= 2;
  })) << "changed answer never arrived by polling";
  session.StopWatch();
  EXPECT_EQ(verify_failures.load(), 0);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

}  // namespace
}  // namespace gz
