// Tests for sharded (distributed-style) ingestion: linearity makes
// shard-merged queries exact. Every correctness case runs on two shard
// substrates — ShardServer threads (thread:) and real gz_shard worker
// processes (local:), both fed over sockets by the one coordinator —
// against one shared ground-truth check, since the substrate must be
// invisible above the API.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "algos/bridges.h"
#include "algos/spanning_forests.h"
#include "baseline/matrix_checker.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_transform.h"
#include "tests/shard_substrate.h"

namespace gz {
namespace {

GraphZeppelinConfig BaseConfig(uint64_t n, uint64_t seed) {
  GraphZeppelinConfig c;
  c.num_nodes = n;
  c.seed = seed;
  c.num_workers = 2;
  c.disk_dir = ::testing::TempDir();
  return c;
}

TEST(ShardedTest, ShardRoutingDeterministicAndBounded) {
  ShardCluster sharded(BaseConfig(64, 1), 4);
  for (NodeId u = 0; u < 20; ++u) {
    const Edge e(u, static_cast<NodeId>(u + 10));
    const int shard = sharded.ShardFor(e);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, sharded.ShardFor(e));
  }
}

TEST(ShardedTest, RoutingRoughlyBalanced) {
  ShardCluster sharded(BaseConfig(256, 2), 4);
  int counts[4] = {0, 0, 0, 0};
  for (NodeId u = 0; u < 255; ++u) {
    for (NodeId v = u + 1; v < 256; v += 17) {
      ++counts[sharded.ShardFor(Edge(u, v))];
    }
  }
  int total = counts[0] + counts[1] + counts[2] + counts[3];
  for (int c : counts) {
    EXPECT_GT(c, total / 8);
    EXPECT_LT(c, total / 2);
  }
}

TEST(ShardedTest, RoutingIdenticalAcrossModes) {
  // An external stream partitioner must be able to pre-split a stream
  // for either deployment; the hash may not depend on the substrate.
  ShardCluster thread(BaseConfig(128, 5), 5,
                      OnSubstrate(Substrate::kThread, 5));
  ShardCluster process(BaseConfig(128, 5), 5);
  for (NodeId u = 0; u < 60; ++u) {
    const Edge e(u, static_cast<NodeId>(u + 13));
    EXPECT_EQ(thread.ShardFor(e), process.ShardFor(e));
  }
}

TEST(ShardedTest, RoutingIsPureFunctionOfTableAcrossModesAndReshards) {
  // The regression the epoch table exists for: routing must be a pure
  // function of (edge, table) that coordinator, shards and any
  // external partitioner share — on every substrate, through elastic
  // reshard operations, with no hidden substrate- or history-dependent
  // state. Both clusters run the same reshard schedule; after every
  // step their tables are identical and every edge routes identically
  // (and identically to the raw pure function).
  const uint64_t n = 128;
  const std::string on_thread = SubstrateEndpoint(Substrate::kThread);
  ShardCluster thread(BaseConfig(n, 6), 2,
                      OnSubstrate(Substrate::kThread, 2));
  ShardCluster process(BaseConfig(n, 6), 2);
  ASSERT_TRUE(thread.Start().ok());
  ASSERT_TRUE(process.Start().ok());

  auto check_agreement = [&](const char* step) {
    ASSERT_TRUE(thread.routing_table() == process.routing_table()) << step;
    for (NodeId u = 0; u < 80; ++u) {
      const Edge e(u, static_cast<NodeId>(u + 11));
      const int expect = RouteToShard(e, n, thread.routing_table());
      EXPECT_EQ(thread.ShardFor(e), expect) << step;
      EXPECT_EQ(process.ShardFor(e), expect) << step;
    }
  };
  check_agreement("initial");

  ASSERT_TRUE(thread.AddShard(on_thread).ok());
  ASSERT_TRUE(process.AddShard().ok());
  check_agreement("after add");

  ASSERT_TRUE(thread.SplitShard(0, on_thread).ok());
  ASSERT_TRUE(process.SplitShard(0).ok());
  check_agreement("after split");

  ASSERT_TRUE(thread.RemoveShard(1).ok());
  ASSERT_TRUE(process.RemoveShard(1).ok());
  check_agreement("after remove");
}

// ---- Substrate matrix ------------------------------------------------------

class ShardedModeTest : public ::testing::TestWithParam<Substrate> {
 protected:
  ShardClusterOptions Options(int num_shards) {
    return OnSubstrate(GetParam(), num_shards);
  }
};

TEST_P(ShardedModeTest, ElasticOpsBeforeInitAreErrorsNotCrashes) {
  ShardCluster sharded(BaseConfig(32, 9), 2, Options(2));
  EXPECT_EQ(sharded.AddShard().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.BeginRemoveShard(0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.BeginSplitShard(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.PumpMigration().code(),
            StatusCode::kFailedPrecondition);
  // And Start() afterwards still brings the cluster up normally.
  ASSERT_TRUE(sharded.Start().ok());
  ASSERT_TRUE(sharded.AddShard(SubstrateEndpoint(GetParam())).ok());
}

TEST_P(ShardedModeTest, SingleShardMatchesPlainInstance) {
  const uint64_t n = 32;
  ShardCluster sharded(BaseConfig(n, 3), 1, Options(1));
  ASSERT_TRUE(sharded.Start().ok());
  GraphZeppelin plain(BaseConfig(n, 3));
  ASSERT_TRUE(plain.Init().ok());

  std::vector<GraphUpdate> updates;
  for (NodeId i = 0; i + 1 < 12; ++i) {
    updates.push_back({Edge(i, i + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(sharded.Update(updates.data(), updates.size()).ok());
  plain.Update(updates.data(), updates.size());
  const ConnectivityResult a = ClusterForest(&sharded);
  const ConnectivityResult b = plain.ListSpanningForest();
  ASSERT_FALSE(a.failed);
  ASSERT_FALSE(b.failed);
  EXPECT_EQ(a.num_components, b.num_components);
}

TEST_P(ShardedModeTest, UpdateCountsSumToTotal) {
  ShardCluster sharded(BaseConfig(64, 4), 3, Options(3));
  ASSERT_TRUE(sharded.Start().ok());
  const size_t total = 200;
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u < 63 && updates.size() < total; ++u) {
    for (NodeId v = u + 1; v < 64 && updates.size() < total; v += 3) {
      updates.push_back({Edge(u, v), UpdateType::kInsert});
    }
  }
  ASSERT_TRUE(sharded.Update(updates.data(), updates.size()).ok());
  uint64_t sum = 0;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    const Result<ShardStats> stats = sharded.Stats(s);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    sum += stats.value().num_updates;
  }
  EXPECT_EQ(sum, updates.size());
}

TEST_P(ShardedModeTest, ForestDecompositionOverShardedSnapshot) {
  // Composition: the k-edge-connectivity certificate extracted from a
  // *sharded* ingest must expose the same bridge as a single instance.
  const uint64_t n = 16;
  GraphZeppelinConfig base = BaseConfig(n, 8);
  base.rounds = RoundsForForests(n, 2);
  ShardCluster sharded(base, 3, Options(3));
  ASSERT_TRUE(sharded.Start().ok());

  // Two triangles joined by one bridge.
  const Edge edges[] = {Edge(0, 1), Edge(1, 2), Edge(0, 2),
                        Edge(3, 4), Edge(4, 5), Edge(3, 5),
                        Edge(2, 3)};
  std::vector<GraphUpdate> updates;
  for (const Edge& e : edges) updates.push_back({e, UpdateType::kInsert});
  ASSERT_TRUE(sharded.Update(updates.data(), updates.size()).ok());
  const GraphSnapshot snapshot = ClusterSnapshot(&sharded);
  const Result<ForestDecomposition> extracted =
      ExtractSpanningForests(snapshot, 2);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  const ForestDecomposition& d = extracted.value();
  ASSERT_FALSE(d.failed);
  const EdgeList bridges = FindBridges(n, d.CertificateEdges());
  ASSERT_EQ(bridges.size(), 1u);
  EXPECT_EQ(bridges[0], Edge(2, 3));
}

TEST_P(ShardedModeTest, SnapshotFoldMatchesSingleInstanceBitwise) {
  // The coordinator's fold of serialized snapshot frames must produce
  // exactly the snapshot a single instance ingesting the whole stream
  // would: the shard partition of the stream (and the substrate) is
  // invisible after aggregation.
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 6;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();

  ShardCluster sharded(BaseConfig(n, 31), 3, Options(3));
  ASSERT_TRUE(sharded.Start().ok());
  GraphZeppelin single(BaseConfig(n, 31));
  ASSERT_TRUE(single.Init().ok());
  std::vector<GraphUpdate> updates;
  for (const Edge& e : edges) updates.push_back({e, UpdateType::kInsert});
  ASSERT_TRUE(sharded.Update(updates.data(), updates.size()).ok());
  single.Update(updates.data(), updates.size());

  const GraphSnapshot folded = ClusterSnapshot(&sharded);
  const GraphSnapshot expect = single.Snapshot();
  EXPECT_TRUE(folded == expect);
  EXPECT_EQ(folded.num_updates(), edges.size());
}

TEST_P(ShardedModeTest, DiskShardsDoNotCollide) {
  // Several disk-backed shards share a seed; per-shard instance tags
  // (and, for processes, per-process pids) must keep their backing
  // files separate — thread shards share one pid.
  GraphZeppelinConfig base = BaseConfig(32, 7);
  base.storage = GraphZeppelinConfig::Storage::kDisk;
  ShardCluster sharded(base, 3, Options(3));
  ASSERT_TRUE(sharded.Start().ok());
  std::vector<GraphUpdate> updates;
  for (NodeId i = 0; i + 1 < 16; ++i) {
    updates.push_back({Edge(i, i + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(sharded.Update(updates.data(), updates.size()).ok());
  const ConnectivityResult r = ClusterForest(&sharded);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 32u - 16u + 1u);
}

TEST_P(ShardedModeTest, BulkSpanIngestionMatchesSingleUpdates) {
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.08;
  ep.seed = 9;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  std::vector<GraphUpdate> updates;
  for (const Edge& e : edges) updates.push_back({e, UpdateType::kInsert});

  ShardCluster bulk(BaseConfig(n, 13), 3, Options(3));
  ASSERT_TRUE(bulk.Start().ok());
  ASSERT_TRUE(bulk.Update(updates.data(), updates.size()).ok());

  // One frame per update: the same stream in one-update spans.
  ShardCluster single(BaseConfig(n, 13), 3, Options(3));
  ASSERT_TRUE(single.Start().ok());
  for (const GraphUpdate& u : updates) ASSERT_TRUE(single.Update(&u, 1).ok());

  EXPECT_TRUE(ClusterSnapshot(&bulk) == ClusterSnapshot(&single));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ShardedModeTest,
    ::testing::Values(Substrate::kThread, Substrate::kProcess),
    [](const ::testing::TestParamInfo<Substrate>& info) {
      return SubstrateName(info.param);
    });

// ---- Randomized correctness sweep, both substrates ------------------------

class ShardedCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, Substrate>> {
};

TEST_P(ShardedCorrectnessTest, MatchesExactCheckerOnRandomStream) {
  const auto [num_shards, seed, substrate] = GetParam();
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.12;
  ep.seed = seed;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = seed;
  tp.disconnect_count = 3;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  ShardCluster sharded(BaseConfig(n, seed + 20), num_shards,
                       OnSubstrate(substrate, num_shards));
  ASSERT_TRUE(sharded.Start().ok());
  AdjacencyMatrixChecker checker(n);
  ASSERT_TRUE(
      sharded.Update(stream.updates.data(), stream.updates.size()).ok());
  for (const GraphUpdate& u : stream.updates) checker.Update(u);
  const ConnectivityResult got = ClusterForest(&sharded);
  const ConnectivityResult expect = checker.ConnectedComponents();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, expect.num_components);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                expect.component_of[i] == expect.component_of[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndSeeds, ShardedCorrectnessTest,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values<uint64_t>(1, 2, 3),
                       ::testing::Values(Substrate::kThread,
                                         Substrate::kProcess)),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t, Substrate>>&
           info) {
      return "Shards" + std::to_string(std::get<0>(info.param)) + "Seed" +
             std::to_string(std::get<1>(info.param)) +
             SubstrateName(std::get<2>(info.param));
    });

}  // namespace
}  // namespace gz
