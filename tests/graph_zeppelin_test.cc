// End-to-end tests of the GraphZeppelin system across all four
// buffering x storage configurations.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>

#include "baseline/matrix_checker.h"
#include "core/graph_zeppelin.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_transform.h"
#include "util/check.h"

namespace gz {
namespace {

using Buffering = GraphZeppelinConfig::Buffering;
using Storage = GraphZeppelinConfig::Storage;

GraphZeppelinConfig MakeConfig(uint64_t num_nodes, uint64_t seed,
                               Buffering buffering, Storage storage) {
  GraphZeppelinConfig c;
  c.num_nodes = num_nodes;
  c.seed = seed;
  c.num_workers = 2;
  c.buffering = buffering;
  c.storage = storage;
  c.disk_dir = ::testing::TempDir();
  c.gutter_tree_buffer_bytes = 1 << 12;  // Small: force tree traffic.
  c.gutter_tree_fanout = 8;
  return c;
}

class GraphZeppelinConfigTest
    : public ::testing::TestWithParam<std::tuple<Buffering, Storage>> {};

TEST_P(GraphZeppelinConfigTest, SmallGraphEndToEnd) {
  const auto [buffering, storage] = GetParam();
  GraphZeppelin gz(MakeConfig(64, 7, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());

  // Two components: a path 0..9 and a triangle 20-21-22.
  for (NodeId i = 0; i + 1 < 10; ++i) {
    gz.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  gz.Update({Edge(20, 21), UpdateType::kInsert});
  gz.Update({Edge(21, 22), UpdateType::kInsert});
  gz.Update({Edge(20, 22), UpdateType::kInsert});

  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  // 64 - 10 - 3 singletons + path + triangle.
  EXPECT_EQ(r.num_components, 64u - 10u - 3u + 2u);
  EXPECT_EQ(r.component_of[0], r.component_of[9]);
  EXPECT_EQ(r.component_of[20], r.component_of[22]);
  EXPECT_NE(r.component_of[0], r.component_of[20]);
}

TEST_P(GraphZeppelinConfigTest, DeletionsDisconnect) {
  const auto [buffering, storage] = GetParam();
  GraphZeppelin gz(MakeConfig(16, 9, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());

  gz.Update({Edge(0, 1), UpdateType::kInsert});
  gz.Update({Edge(1, 2), UpdateType::kInsert});
  gz.Update({Edge(1, 2), UpdateType::kDelete});

  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.component_of[0], r.component_of[1]);
  EXPECT_NE(r.component_of[1], r.component_of[2]);
}

TEST_P(GraphZeppelinConfigTest, QueriesMidStreamThenContinue) {
  const auto [buffering, storage] = GetParam();
  GraphZeppelin gz(MakeConfig(32, 11, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());

  gz.Update({Edge(0, 1), UpdateType::kInsert});
  const ConnectivityResult r1 = gz.ListSpanningForest();
  ASSERT_FALSE(r1.failed);
  EXPECT_EQ(r1.num_components, 31u);

  // Ingestion continues after the query.
  gz.Update({Edge(1, 2), UpdateType::kInsert});
  gz.Update({Edge(2, 3), UpdateType::kInsert});
  const ConnectivityResult r2 = gz.ListSpanningForest();
  ASSERT_FALSE(r2.failed);
  EXPECT_EQ(r2.num_components, 29u);
  EXPECT_EQ(r2.component_of[0], r2.component_of[3]);
}

TEST_P(GraphZeppelinConfigTest, RandomStreamMatchesExactChecker) {
  const auto [buffering, storage] = GetParam();
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 21;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 21;
  tp.disconnect_count = 4;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  GraphZeppelin gz(MakeConfig(n, 23, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    gz.Update(u);
    checker.Update(u);
  }
  const ConnectivityResult got = gz.ListSpanningForest();
  const ConnectivityResult expect = checker.ConnectedComponents();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, expect.num_components);
  // Partitions must agree exactly.
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                expect.component_of[i] == expect.component_of[j]);
    }
  }
  EXPECT_EQ(gz.num_updates_ingested(), stream.updates.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, GraphZeppelinConfigTest,
    ::testing::Combine(::testing::Values(Buffering::kLeafOnly,
                                         Buffering::kGutterTree),
                       ::testing::Values(Storage::kRam, Storage::kDisk)),
    [](const ::testing::TestParamInfo<std::tuple<Buffering, Storage>>& info) {
      std::string name =
          std::get<0>(info.param) == Buffering::kLeafOnly ? "LeafOnly"
                                                          : "GutterTree";
      name += std::get<1>(info.param) == Storage::kRam ? "Ram" : "Disk";
      return name;
    });

TEST(GraphZeppelinTest, DestructionWithBufferedUpdatesIsClean) {
  // Destroying an instance with unflushed gutters and queued batches
  // must shut down workers without deadlock or crash.
  for (auto buffering : {Buffering::kLeafOnly, Buffering::kGutterTree}) {
    GraphZeppelin gz(MakeConfig(32, 71, buffering, Storage::kRam));
    ASSERT_TRUE(gz.Init().ok());
    for (NodeId i = 0; i + 1 < 32; ++i) {
      gz.Update({Edge(i, i + 1), UpdateType::kInsert});
    }
    // No flush, no query: destructor runs with work in flight.
  }
  SUCCEED();
}

TEST(GraphZeppelinTest, InitRequiredBeforeUpdate) {
  GraphZeppelin gz(MakeConfig(8, 1, Buffering::kLeafOnly, Storage::kRam));
  EXPECT_DEATH(gz.Update({Edge(0, 1), UpdateType::kInsert}), "Init");
}

TEST(GraphZeppelinTest, DoubleInitFails) {
  GraphZeppelin gz(MakeConfig(8, 1, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  EXPECT_EQ(gz.Init().code(), StatusCode::kFailedPrecondition);
}

TEST(GraphZeppelinTest, ByteSizeAccounting) {
  GraphZeppelin ram(MakeConfig(64, 2, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(ram.Init().ok());
  EXPECT_GT(ram.RamByteSize(), ram.node_sketch_bytes() * 64);
  EXPECT_EQ(ram.DiskByteSize(), 0u);

  GraphZeppelin disk(
      MakeConfig(64, 3, Buffering::kGutterTree, Storage::kDisk));
  ASSERT_TRUE(disk.Init().ok());
  EXPECT_GT(disk.DiskByteSize(), disk.node_sketch_bytes() * 64);
  // On disk, RAM holds only buffers/metadata: far below the sketch total.
  EXPECT_LT(disk.RamByteSize(), disk.DiskByteSize());
}

TEST(GraphZeppelinTest, ConfigurableRounds) {
  GraphZeppelinConfig c =
      MakeConfig(64, 4, Buffering::kLeafOnly, Storage::kRam);
  c.rounds = 3;
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  EXPECT_EQ(gz.sketch_params().rounds, 3);
}

TEST(GraphZeppelinTest, GroupedGuttersMatchChecker) {
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.2;
  ep.seed = 51;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 51;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  GraphZeppelinConfig c = MakeConfig(n, 52, Buffering::kLeafOnly,
                                     Storage::kRam);
  c.nodes_per_gutter_group = 6;  // Section 4.1 node groups.
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    gz.Update(u);
    checker.Update(u);
  }
  const ConnectivityResult got = gz.ListSpanningForest();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components,
            checker.ConnectedComponents().num_components);
}

TEST(GraphZeppelinTest, GutterTreeWithNodeGroupsMatchesChecker) {
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 61;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 61;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  GraphZeppelinConfig c =
      MakeConfig(n, 62, Buffering::kGutterTree, Storage::kDisk);
  c.nodes_per_gutter_group = 5;
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    gz.Update(u);
    checker.Update(u);
  }
  const ConnectivityResult got = gz.ListSpanningForest();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components,
            checker.ConnectedComponents().num_components);
}

TEST(GraphZeppelinTest, HotNodeUnderManyWorkers) {
  // Every edge touches node 0: all batches race on one sketch. The
  // delta-XOR merge must serialize correctly.
  GraphZeppelinConfig c =
      MakeConfig(64, 63, Buffering::kLeafOnly, Storage::kRam);
  c.num_workers = 8;
  c.gutter_fraction = 1e-9;  // One-update batches: maximum contention.
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  for (NodeId v = 1; v < 64; ++v) {
    gz.Update({Edge(0, v), UpdateType::kInsert});
  }
  for (NodeId v = 32; v < 64; ++v) {
    gz.Update({Edge(0, v), UpdateType::kDelete});
  }
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u + 32u);  // Star of 32 + 32 singletons.
  EXPECT_TRUE(r.Connected(0, 31));
  EXPECT_FALSE(r.Connected(0, 32));
}

TEST(GraphZeppelinTest, UnwritableDiskDirFailsInit) {
  GraphZeppelinConfig c =
      MakeConfig(8, 64, Buffering::kGutterTree, Storage::kDisk);
  c.disk_dir = "/nonexistent_dir_for_gz_test";
  GraphZeppelin gz(c);
  EXPECT_FALSE(gz.Init().ok());
}

TEST(GraphZeppelinTest, TinyGuttersStillCorrect) {
  GraphZeppelinConfig c =
      MakeConfig(24, 53, Buffering::kLeafOnly, Storage::kRam);
  c.gutter_fraction = 1e-9;  // Clamps to one update per gutter.
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  for (NodeId i = 0; i + 1 < 24; ++i) {
    gz.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
}

TEST(GraphZeppelinTest, MinimalTwoNodeGraph) {
  GraphZeppelin gz(MakeConfig(2, 54, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  gz.Update({Edge(0, 1), UpdateType::kInsert});
  ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  gz.Update({Edge(0, 1), UpdateType::kDelete});
  r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 2u);
}

TEST(GraphZeppelinTest, OutOfRangeNodeAborts) {
  GraphZeppelin gz(MakeConfig(8, 55, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  EXPECT_DEATH(gz.Update({Edge(0, 8), UpdateType::kInsert}), "v < num_nodes");
}

class GraphZeppelinSeedSweepTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(GraphZeppelinSeedSweepTest, NeverWrongAcrossSeeds) {
  // A miniature Section 6.3 inside the unit suite: many sketch seeds on
  // one stream, every answer exact.
  const uint64_t seed = GetParam();
  const uint64_t n = 40;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 5;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 5;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) checker.Update(u);
  const size_t expect = checker.ConnectedComponents().num_components;

  GraphZeppelin gz(MakeConfig(n, seed * 7919 + 13, Buffering::kLeafOnly,
                              Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  for (const GraphUpdate& u : stream.updates) gz.Update(u);
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphZeppelinSeedSweepTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(GraphZeppelinTest, ManyWorkersProduceSameAnswer) {
  GraphZeppelinConfig c =
      MakeConfig(32, 5, Buffering::kLeafOnly, Storage::kRam);
  c.num_workers = 8;
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  for (NodeId i = 0; i + 1 < 32; ++i) {
    gz.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
}

// A load must overwrite every update made before it, including ones
// still buffered in the gutters or queued for a worker: the loaded
// instance's snapshot is bitwise the loaded state, whatever ingest
// preceded the call unflushed.
class GraphZeppelinLoadTest : public ::testing::TestWithParam<Storage> {
 protected:
  GraphZeppelinConfig Config() const {
    GraphZeppelinConfig c =
        MakeConfig(64, 31, Buffering::kLeafOnly, GetParam());
    c.num_workers = 4;
    return c;
  }
  // Feeds a path over every node, then churn, and never flushes.
  static void IngestUnflushed(GraphZeppelin* gz, uint64_t salt) {
    for (NodeId i = 0; i + 1 < 64; ++i) {
      gz->Update({Edge(i, i + 1), UpdateType::kInsert});
    }
    uint64_t x = salt;
    for (int i = 0; i < 20000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const NodeId u = static_cast<NodeId>((x >> 33) % 64);
      const NodeId v = static_cast<NodeId>((u + 1 + (x >> 40) % 63) % 64);
      gz->Update({Edge(u, v), UpdateType::kInsert});
    }
  }
  // The state to load: a different stream's snapshot.
  GraphSnapshot Source() const {
    GraphZeppelin source(Config());
    GZ_CHECK_OK(source.Init());
    source.Update({Edge(3, 40), UpdateType::kInsert});
    source.Update({Edge(7, 8), UpdateType::kInsert});
    return source.Snapshot();
  }
};

TEST_P(GraphZeppelinLoadTest, LoadSnapshotOverwritesUnflushedUpdates) {
  const GraphSnapshot loaded = Source();
  GraphZeppelin gz(Config());
  ASSERT_TRUE(gz.Init().ok());
  IngestUnflushed(&gz, 1);
  ASSERT_TRUE(gz.LoadSnapshot(loaded).ok());
  EXPECT_TRUE(gz.Snapshot() == loaded);
}

TEST_P(GraphZeppelinLoadTest, LoadCheckpointOverwritesUnflushedUpdates) {
  const GraphSnapshot loaded = Source();
  const std::string path = ::testing::TempDir() + "/gz_load_test_" +
                           std::to_string(static_cast<int>(GetParam())) +
                           ".snap";
  ASSERT_TRUE(loaded.SaveToFile(path).ok());
  GraphZeppelin gz(Config());
  ASSERT_TRUE(gz.Init().ok());
  IngestUnflushed(&gz, 2);
  ASSERT_TRUE(gz.LoadCheckpoint(path).ok());
  EXPECT_TRUE(gz.Snapshot() == loaded);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Storages, GraphZeppelinLoadTest,
                         ::testing::Values(Storage::kRam, Storage::kDisk));

}  // namespace
}  // namespace gz
