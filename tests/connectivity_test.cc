// Tests for Boruvka-over-sketches connectivity, checked against exact
// references on structured and random graphs.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/matrix_checker.h"
#include "stream/stream_file.h"
#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "core/graph_zeppelin.h"
#include "dsu/dsu.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/kronecker_generator.h"
#include "stream/stream_types.h"
#include "util/random.h"
#include "util/xxhash.h"

namespace gz {
namespace {

// Sketches a graph straight into a snapshot (no buffering): one delta
// sketch per edge, folded into both endpoints' records.
GraphSnapshot SketchGraph(uint64_t num_nodes, uint64_t seed,
                          const EdgeList& edges) {
  NodeSketchParams p;
  p.num_nodes = num_nodes;
  p.seed = seed;
  GraphSnapshot snapshot = GraphSnapshot::Zero(p);
  NodeSketch edge(p);
  for (const Edge& e : edges) {
    edge.Clear();
    edge.Update(EdgeToIndex(e, num_nodes));
    EXPECT_TRUE(snapshot.MergeNodeDelta(e.u, edge).ok());
    EXPECT_TRUE(snapshot.MergeNodeDelta(e.v, edge).ok());
  }
  return snapshot;
}

// Verifies a claimed spanning forest against the true edge set and the
// true partition: forest edges must be real, acyclic, and produce the
// same partition.
void CheckForest(const ConnectivityResult& result, uint64_t num_nodes,
                 const EdgeList& edges) {
  std::set<std::pair<NodeId, NodeId>> edge_set;
  for (const Edge& e : edges) edge_set.insert({e.u, e.v});

  Dsu truth(num_nodes);
  for (const Edge& e : edges) truth.Union(e.u, e.v);

  Dsu forest_dsu(num_nodes);
  for (const Edge& e : result.spanning_forest) {
    EXPECT_TRUE(edge_set.count({e.u, e.v}) > 0)
        << "forest contains non-edge " << e.u << "-" << e.v;
    EXPECT_TRUE(forest_dsu.Union(e.u, e.v)) << "forest has a cycle";
  }
  EXPECT_EQ(result.num_components, truth.num_sets());
  // Partitions must match exactly.
  for (uint64_t i = 0; i < num_nodes; ++i) {
    for (uint64_t j = i + 1; j < num_nodes; ++j) {
      EXPECT_EQ(result.component_of[i] == result.component_of[j],
                truth.Find(i) == truth.Find(j))
          << i << " vs " << j;
    }
  }
}

TEST(ConnectivityTest, EmptyGraphAllIsolated) {
  const GraphSnapshot snapshot = SketchGraph(8, 1, {});
  const ConnectivityResult r = BoruvkaConnectivity(snapshot);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 8u);
  EXPECT_TRUE(r.spanning_forest.empty());
}

TEST(ConnectivityTest, SingleEdge) {
  const GraphSnapshot snapshot = SketchGraph(4, 2, {Edge(1, 2)});
  const ConnectivityResult r = BoruvkaConnectivity(snapshot);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 3u);
  ASSERT_EQ(r.spanning_forest.size(), 1u);
  EXPECT_EQ(r.spanning_forest[0], Edge(1, 2));
}

TEST(ConnectivityTest, PathGraph) {
  EdgeList edges;
  const uint64_t n = 32;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  const GraphSnapshot snapshot = SketchGraph(n, 3, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snapshot);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.spanning_forest.size(), n - 1);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, StarGraph) {
  EdgeList edges;
  const uint64_t n = 64;
  for (NodeId i = 1; i < n; ++i) edges.emplace_back(0, i);
  const GraphSnapshot snapshot = SketchGraph(n, 4, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snapshot);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, GiantStarFoldIsBitwiseIdenticalForAnyThreadCount) {
  // A star is the worst case the chunked fold exists for: after round
  // one EVERYTHING merges into a single component, so each later
  // round's whole XOR fold lands in one group. The fold units must
  // spread that group over the pool AND stay bitwise-invisible: the
  // result must be identical for every thread count, and the snapshot
  // (which the engine only reads) byte-identical afterwards.
  EdgeList edges;
  const uint64_t n = 4096;  // Above the pool-spawn floor.
  for (NodeId i = 1; i < n; ++i) edges.emplace_back(0, i);

  const GraphSnapshot snapshot = SketchGraph(n, 6, edges);
  const std::vector<uint8_t> before = snapshot.Serialize();
  const ConnectivityResult want =
      BoruvkaConnectivity(snapshot, 0, -1, /*num_threads=*/1);
  EXPECT_FALSE(want.failed);
  EXPECT_EQ(want.num_components, 1u);
  CheckForest(want, n, edges);

  for (const int threads : {2, 4, 8}) {
    const ConnectivityResult got =
        BoruvkaConnectivity(snapshot, 0, -1, threads);
    EXPECT_EQ(got.failed, want.failed) << threads << " threads";
    EXPECT_EQ(got.num_components, want.num_components);
    EXPECT_EQ(got.rounds_used, want.rounds_used);
    EXPECT_EQ(got.spanning_forest, want.spanning_forest)
        << threads << " threads";
    EXPECT_EQ(got.component_of, want.component_of);
  }
  EXPECT_TRUE(snapshot.Serialize() == before) << "the query wrote the snapshot";
}

TEST(ConnectivityTest, CompleteGraph) {
  EdgeList edges;
  const uint64_t n = 24;
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  const GraphSnapshot snapshot = SketchGraph(n, 5, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snapshot);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, TwoCliquesStayApart) {
  EdgeList edges;
  const uint64_t n = 20;
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) edges.emplace_back(u, v);
  }
  for (NodeId u = 10; u < 20; ++u) {
    for (NodeId v = u + 1; v < 20; ++v) edges.emplace_back(u, v);
  }
  const GraphSnapshot snapshot = SketchGraph(n, 6, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snapshot);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 2u);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, ComponentsFromLabelsGroups) {
  std::vector<NodeId> labels = {0, 0, 2, 2, 4};
  const auto components = ComponentsFromLabels(labels);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(components[1], (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(components[2], (std::vector<NodeId>{4}));
}

// Property sweep: random graphs across densities and seeds, verified
// against Kruskal on an exact adjacency matrix.
class ConnectivityRandomTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, uint64_t>> {
};

TEST_P(ConnectivityRandomTest, MatchesKruskalReference) {
  const auto [num_nodes, density, seed] = GetParam();
  ErdosRenyiParams ep;
  ep.num_nodes = num_nodes;
  ep.p = density;
  ep.seed = seed;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();

  const GraphSnapshot snapshot = SketchGraph(num_nodes, seed * 101 + 7, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snapshot);
  ASSERT_FALSE(r.failed);
  CheckForest(r, num_nodes, edges);

  // Cross-check against the matrix checker's Kruskal.
  AdjacencyMatrixChecker checker(num_nodes);
  for (const Edge& e : edges) {
    checker.Update({e, UpdateType::kInsert});
  }
  const ConnectivityResult kruskal = checker.ConnectedComponents();
  EXPECT_EQ(r.num_components, kruskal.num_components);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConnectivityRandomTest,
    ::testing::Combine(::testing::Values<uint64_t>(16, 64, 128),
                       ::testing::Values(0.01, 0.1, 0.5),
                       ::testing::Values<uint64_t>(1, 2, 3)));

TEST(ConnectivityTest, ConnectedPointQuery) {
  const GraphSnapshot snapshot = SketchGraph(8, 9, {Edge(0, 1), Edge(1, 2), Edge(4, 5)});
  const ConnectivityResult r = BoruvkaConnectivity(snapshot);
  ASSERT_FALSE(r.failed);
  EXPECT_TRUE(r.Connected(0, 2));
  EXPECT_TRUE(r.Connected(4, 5));
  EXPECT_FALSE(r.Connected(0, 4));
  EXPECT_FALSE(r.Connected(3, 6));
  EXPECT_TRUE(r.Connected(7, 7));
}

TEST(ConnectivityTest, ConnectedOutOfRangeNodeIsFalse) {
  // Regression: out-of-range node ids used to index component_of
  // unchecked (UB); they must simply report "not connected".
  const GraphSnapshot snapshot = SketchGraph(8, 9, {Edge(0, 1)});
  const ConnectivityResult r = BoruvkaConnectivity(snapshot);
  ASSERT_FALSE(r.failed);
  EXPECT_FALSE(r.Connected(0, 8));
  EXPECT_FALSE(r.Connected(8, 0));
  EXPECT_FALSE(r.Connected(12345, 67890));
  EXPECT_FALSE(r.Connected(0, static_cast<NodeId>(-1)));
  // In-range behavior is unchanged.
  EXPECT_TRUE(r.Connected(0, 1));

  // An empty (default) result connects nothing, in range or not.
  const ConnectivityResult empty;
  EXPECT_FALSE(empty.Connected(0, 0));
}

TEST(ConnectivityTest, SpanningForestStreamOutput) {
  // Problem 1: the answer is itself an insert-only edge stream.
  const uint64_t n = 16;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 10; ++i) edges.emplace_back(i, i + 1);
  const GraphSnapshot snapshot = SketchGraph(n, 10, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snapshot);
  ASSERT_FALSE(r.failed);

  const std::string path =
      std::string(::testing::TempDir()) + "/forest_stream.gzst";
  ASSERT_TRUE(WriteSpanningForestStream(r, n, path).ok());

  uint64_t read_nodes = 0;
  auto readback = ReadStreamFile(path, &read_nodes);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(read_nodes, n);
  ASSERT_EQ(readback.value().size(), r.spanning_forest.size());
  // All inserts, and replaying them reproduces the same partition.
  Dsu dsu(n);
  for (const GraphUpdate& u : readback.value()) {
    EXPECT_EQ(u.type, UpdateType::kInsert);
    dsu.Union(u.edge.u, u.edge.v);
  }
  EXPECT_EQ(dsu.num_sets(), r.num_components);
  std::remove(path.c_str());
}

TEST(ConnectivityTest, RoundWindowRestrictsWork) {
  // With a 1-round window on a path graph, Boruvka cannot finish and
  // must report failure.
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 16; ++i) edges.emplace_back(i, i + 1);
  const GraphSnapshot snapshot = SketchGraph(16, 11, edges);
  const ConnectivityResult r =
      BoruvkaConnectivity(snapshot, /*first_round=*/0, /*num_rounds=*/1);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.rounds_used, 1);
}

TEST(ConnectivityTest, WrongRecordCountAborts) {
  NodeSketchParams p;
  p.num_nodes = 8;
  p.seed = 1;
  // Too few records for the node bound.
  SketchArena records =
      SketchArena::Zeroed(4, NodeSketch::SerializedSizeFor(p));
  EXPECT_DEATH(GraphSnapshot(p, std::move(records), 0),
               "one node record per vertex");
}

TEST(ConnectivityTest, BadRoundWindowAborts) {
  const GraphSnapshot snapshot = SketchGraph(8, 12, {Edge(0, 1)});
  const int rounds = snapshot.rounds();
  EXPECT_DEATH(BoruvkaConnectivity(snapshot, rounds, 1),
               "first_round");
}

// Digest of a full query answer: forest edges in order, every label,
// rounds used, component count and the failure flag.
uint64_t AnswerDigest(const ConnectivityResult& r) {
  std::vector<uint32_t> words;
  for (const Edge& e : r.spanning_forest) {
    words.push_back(e.u);
    words.push_back(e.v);
  }
  for (const NodeId label : r.component_of) words.push_back(label);
  words.push_back(static_cast<uint32_t>(r.rounds_used));
  words.push_back(static_cast<uint32_t>(r.num_components));
  words.push_back(r.failed ? 1u : 0u);
  return XxHash64(words.data(), words.size() * sizeof(uint32_t), 0);
}

struct PinnedAnswer {
  size_t forest_edges;
  size_t components;
  int rounds;
  uint64_t digest;
};

void ExpectPinnedAnswer(uint64_t num_nodes, uint64_t seed,
                        const EdgeList& edges, const PinnedAnswer& pin) {
  GraphZeppelinConfig config;
  config.num_nodes = num_nodes;
  config.seed = seed;
  config.disk_dir = ::testing::TempDir();
  GraphZeppelin gz(config);
  ASSERT_TRUE(gz.Init().ok());
  for (const Edge& e : edges) gz.Update({e, UpdateType::kInsert});
  const GraphSnapshot snapshot = gz.Snapshot();
  for (const int threads : {1, 4}) {
    const ConnectivityResult r = Connectivity(snapshot, threads);
    EXPECT_FALSE(r.failed) << threads << " threads";
    EXPECT_EQ(r.spanning_forest.size(), pin.forest_edges);
    EXPECT_EQ(r.num_components, pin.components);
    EXPECT_EQ(r.rounds_used, pin.rounds);
    EXPECT_EQ(AnswerDigest(r), pin.digest) << threads << " threads";
  }
}

// The exact answers (forest edge order, DSU labels, rounds) of the
// copying Boruvka engine this one replaced, recorded from it on these
// graphs: sampling, DSU order and fold must stay bit-for-bit the same.
TEST(ConnectivityTest, PinnedAnswersOfTheCopyingEngine) {
  {
    ErdosRenyiParams p;
    p.num_nodes = 512;
    p.p = 0.004;
    p.seed = 5;
    ExpectPinnedAnswer(512, 51, ErdosRenyiGenerator(p).Generate(),
                       {436, 76, 5, 0x65d5458cdfcad65dULL});
  }
  {
    KroneckerParams p;
    p.scale = 10;
    p.density = 0.05;
    p.seed = 7;
    KroneckerGenerator gen(p);
    ExpectPinnedAnswer(gen.num_nodes(), 71, gen.Generate(),
                       {975, 49, 4, 0x66617f3c2384efa3ULL});
  }
  {
    ErdosRenyiParams p;
    p.num_nodes = 2048;
    p.p = 0.0015;
    p.seed = 9;
    ExpectPinnedAnswer(2048, 91, ErdosRenyiGenerator(p).Generate(),
                       {1946, 102, 6, 0x56adccc1d0b4bc8bULL});
  }
}

TEST(ConnectivityTest, ManySmallComponents) {
  // Disjoint triangles.
  EdgeList edges;
  const uint64_t n = 60;
  for (NodeId base = 0; base < n; base += 3) {
    edges.emplace_back(base, base + 1);
    edges.emplace_back(base + 1, base + 2);
    edges.emplace_back(base, base + 2);
  }
  const GraphSnapshot snapshot = SketchGraph(n, 8, edges);
  const ConnectivityResult r = BoruvkaConnectivity(snapshot);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, n / 3);
  CheckForest(r, n, edges);
}

}  // namespace
}  // namespace gz
