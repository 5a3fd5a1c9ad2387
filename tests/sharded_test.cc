// Tests for sharded (distributed-style) ingestion: linearity makes
// shard-merged queries exact. Every correctness case runs on two shard
// substrates — ShardServer threads (thread:) and real gz_shard worker
// processes (local:), both fed over sockets by the one coordinator —
// against one shared ground-truth check, since the substrate must be
// invisible above the API.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "algos/bridges.h"
#include "algos/spanning_forests.h"
#include "baseline/matrix_checker.h"
#include "distributed/sharded_graph_zeppelin.h"
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
  ShardedGraphZeppelin sharded(BaseConfig(64, 1), 4);
  for (NodeId u = 0; u < 20; ++u) {
    const Edge e(u, static_cast<NodeId>(u + 10));
    const int shard = sharded.ShardFor(e);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, sharded.ShardFor(e));
  }
}

TEST(ShardedTest, RoutingRoughlyBalanced) {
  ShardedGraphZeppelin sharded(BaseConfig(256, 2), 4);
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
  ShardedGraphZeppelin thread(BaseConfig(128, 5), 5,
                              OnSubstrate(Substrate::kThread, 5));
  ShardedGraphZeppelin process(BaseConfig(128, 5), 5);
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
  // state. Both facades run the same reshard schedule; after every
  // step their tables are identical and every edge routes identically
  // (and identically to the raw pure function).
  const uint64_t n = 128;
  const std::string on_thread = SubstrateEndpoint(Substrate::kThread);
  ShardedGraphZeppelin thread(BaseConfig(n, 6), 2,
                              OnSubstrate(Substrate::kThread, 2));
  ShardedGraphZeppelin process(BaseConfig(n, 6), 2);
  ASSERT_TRUE(thread.Init().ok());
  ASSERT_TRUE(process.Init().ok());

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
  ShardedGraphZeppelin sharded(BaseConfig(32, 9), 2, Options(2));
  EXPECT_EQ(sharded.AddShard().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.BeginRemoveShard(0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.BeginSplitShard(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.PumpMigration().code(),
            StatusCode::kFailedPrecondition);
  // And Init() afterwards still brings the facade up normally.
  ASSERT_TRUE(sharded.Init().ok());
  ASSERT_TRUE(sharded.AddShard(SubstrateEndpoint(GetParam())).ok());
}

TEST_P(ShardedModeTest, SingleShardMatchesPlainInstance) {
  const uint64_t n = 32;
  ShardedGraphZeppelin sharded(BaseConfig(n, 3), 1, Options(1));
  ASSERT_TRUE(sharded.Init().ok());
  GraphZeppelin plain(BaseConfig(n, 3));
  ASSERT_TRUE(plain.Init().ok());

  for (NodeId i = 0; i + 1 < 12; ++i) {
    const GraphUpdate u{Edge(i, i + 1), UpdateType::kInsert};
    sharded.Update(u);
    plain.Update(u);
  }
  const ConnectivityResult a = sharded.ListSpanningForest();
  const ConnectivityResult b = plain.ListSpanningForest();
  ASSERT_FALSE(a.failed);
  ASSERT_FALSE(b.failed);
  EXPECT_EQ(a.num_components, b.num_components);
}

TEST_P(ShardedModeTest, UpdateCountsSumToTotal) {
  ShardedGraphZeppelin sharded(BaseConfig(64, 4), 3, Options(3));
  ASSERT_TRUE(sharded.Init().ok());
  const int total = 200;
  int ingested = 0;
  for (NodeId u = 0; u < 63 && ingested < total; ++u) {
    for (NodeId v = u + 1; v < 64 && ingested < total; v += 3) {
      sharded.Update({Edge(u, v), UpdateType::kInsert});
      ++ingested;
    }
  }
  uint64_t sum = 0;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    sum += sharded.updates_in_shard(s);
  }
  EXPECT_EQ(sum, static_cast<uint64_t>(ingested));
}

TEST_P(ShardedModeTest, ForestDecompositionOverShardedSnapshot) {
  // Composition: the k-edge-connectivity certificate extracted from a
  // *sharded* ingest must expose the same bridge as a single instance.
  const uint64_t n = 16;
  GraphZeppelinConfig base = BaseConfig(n, 8);
  base.rounds = RoundsForForests(n, 2);
  ShardedGraphZeppelin sharded(base, 3, Options(3));
  ASSERT_TRUE(sharded.Init().ok());

  // Two triangles joined by one bridge.
  const Edge edges[] = {Edge(0, 1), Edge(1, 2), Edge(0, 2),
                        Edge(3, 4), Edge(4, 5), Edge(3, 5),
                        Edge(2, 3)};
  for (const Edge& e : edges) {
    sharded.Update({e, UpdateType::kInsert});
  }
  const GraphSnapshot snapshot = sharded.Snapshot();
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

  ShardedGraphZeppelin sharded(BaseConfig(n, 31), 3, Options(3));
  ASSERT_TRUE(sharded.Init().ok());
  GraphZeppelin single(BaseConfig(n, 31));
  ASSERT_TRUE(single.Init().ok());
  for (const Edge& e : edges) {
    sharded.Update({e, UpdateType::kInsert});
    single.Update({e, UpdateType::kInsert});
  }

  const GraphSnapshot folded = sharded.Snapshot();
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
  ShardedGraphZeppelin sharded(base, 3, Options(3));
  ASSERT_TRUE(sharded.Init().ok());
  for (NodeId i = 0; i + 1 < 16; ++i) {
    sharded.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  const ConnectivityResult r = sharded.ListSpanningForest();
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

  ShardedGraphZeppelin bulk(BaseConfig(n, 13), 3, Options(3));
  ASSERT_TRUE(bulk.Init().ok());
  bulk.Update(updates.data(), updates.size());

  ShardedGraphZeppelin single(BaseConfig(n, 13), 3, Options(3));
  ASSERT_TRUE(single.Init().ok());
  for (const GraphUpdate& u : updates) single.Update(u);

  EXPECT_TRUE(bulk.Snapshot() == single.Snapshot());
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

  ShardedGraphZeppelin sharded(BaseConfig(n, seed + 20), num_shards,
                               OnSubstrate(substrate, num_shards));
  ASSERT_TRUE(sharded.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    sharded.Update(u);
    checker.Update(u);
  }
  const ConnectivityResult got = sharded.ListSpanningForest();
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
