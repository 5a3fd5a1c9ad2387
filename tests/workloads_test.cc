// Workload subsystem tests: the count-min heavy-hitter side sketch
// (exactness of the linear fold, canonical serialization, distributed
// identity through live resharding), sliding-window connectivity (the
// expiry-delete discipline against an explicit last-W ground truth,
// the mixed-slab XOR-cancellation regression, watchable window
// queries), and k-edge-connectivity certification on known graphs.
//
// The distributed cases mirror sharded_test / shard_cluster_test: every
// answer must be identical — bitwise for serialized folds, exact for
// CM counters — between a single-process instance and a sharded
// cluster, in both execution modes and over both transports.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "algos/spanning_forests.h"
#include "baseline/matrix_checker.h"
#include "core/connectivity.h"
#include "core/graph_zeppelin.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_transport.h"
#include "stream/erdos_renyi_generator.h"
#include "tests/shard_substrate.h"
#include "workloads/count_min.h"
#include "workloads/k_connectivity.h"
#include "workloads/window_ingestor.h"
#include "workloads/windowed_connectivity.h"

namespace gz {
namespace {

GraphZeppelinConfig BaseConfig(uint64_t n, uint64_t seed) {
  GraphZeppelinConfig c;
  c.num_nodes = n;
  c.seed = seed;
  c.num_workers = 1;
  c.disk_dir = ::testing::TempDir();
  return c;
}

// A config with heavy-hitter tracking on. The candidate budget is
// roomy on purpose: bitwise fold identity holds only while no
// candidate table saturates (admission order differs across
// partitions once keys are dropped).
GraphZeppelinConfig HHConfig(uint64_t n, uint64_t seed) {
  GraphZeppelinConfig c = BaseConfig(n, seed);
  c.heavy_hitter_width = 512;
  c.heavy_hitter_depth = 4;
  c.heavy_hitter_candidates = 1 << 14;
  return c;
}

// ---- CountMinSketch -------------------------------------------------------

TEST(CountMinTest, TurnstileEstimatesExactWhenSparse) {
  CountMinParams p;
  p.seed = 7;
  p.width = 1024;
  p.depth = 4;
  CountMinSketch cm(p);
  for (uint64_t k = 1; k <= 20; ++k) {
    cm.Add(k, static_cast<int64_t>(k));
  }
  cm.Add(5, -2);  // Turnstile: deletes subtract.
  for (uint64_t k = 1; k <= 20; ++k) {
    const int64_t truth = (k == 5) ? 3 : static_cast<int64_t>(k);
    EXPECT_EQ(cm.Estimate(k), truth) << "key " << k;
  }
  EXPECT_EQ(cm.Estimate(999), 0);  // Untouched key: no false mass here.
}

TEST(CountMinTest, MergeIsLinear) {
  CountMinParams p;
  p.seed = 9;
  p.width = 256;
  p.depth = 4;
  CountMinSketch a(p), b(p), all(p);
  for (uint64_t k = 0; k < 40; ++k) {
    // Keys 0..39 split between the halves, with overlap at 10..19.
    if (k < 20) a.Add(k, 2);
    if (k >= 10) b.Add(k, 3);
    if (k < 20) all.Add(k, 2);
    if (k >= 10) all.Add(k, 3);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  // Counter-wise identity, not just estimate agreement: the merge IS
  // the sum of the grids.
  EXPECT_EQ(a.counters(), all.counters());
}

TEST(CountMinTest, MergeRejectsMismatchedGeometryOrSeed) {
  CountMinParams p;
  p.width = 256;
  p.depth = 4;
  CountMinSketch base(p);
  {
    CountMinParams q = p;
    q.width = 512;
    CountMinSketch other(q);
    EXPECT_EQ(base.Merge(other).code(), StatusCode::kInvalidArgument);
  }
  {
    CountMinParams q = p;
    q.seed = p.seed + 1;
    CountMinSketch other(q);
    EXPECT_EQ(base.Merge(other).code(), StatusCode::kInvalidArgument);
  }
}

// ---- HeavyHitterSketch ----------------------------------------------------

HeavyHitterParams SmallHHParams(uint64_t n) {
  HeavyHitterParams p;
  p.num_nodes = n;
  p.seed = 11;
  p.width = 512;
  p.depth = 4;
  p.candidates = 1024;
  return p;
}

TEST(HeavyHitterTest, CountsAndTopKExactOnSmallStream) {
  const uint64_t n = 16;
  HeavyHitterSketch hh(SmallHHParams(n));
  std::vector<GraphUpdate> updates;
  for (int i = 0; i < 5; ++i) updates.push_back({Edge(0, 1), UpdateType::kInsert});
  for (int i = 0; i < 2; ++i) updates.push_back({Edge(2, 3), UpdateType::kInsert});
  updates.push_back({Edge(0, 1), UpdateType::kDelete});
  updates.push_back({Edge(4, 5), UpdateType::kInsert});
  hh.Update(updates.data(), updates.size());

  EXPECT_EQ(hh.updates_applied(), updates.size());
  EXPECT_EQ(hh.EdgeCount(Edge(0, 1)), 4);
  EXPECT_EQ(hh.EdgeCount(Edge(2, 3)), 2);
  EXPECT_EQ(hh.EdgeCount(Edge(4, 5)), 1);
  // Degrees count BOTH endpoints per update, signed.
  EXPECT_EQ(hh.DegreeCount(0), 4);
  EXPECT_EQ(hh.DegreeCount(1), 4);
  EXPECT_EQ(hh.DegreeCount(3), 2);
  EXPECT_EQ(hh.DegreeCount(5), 1);
  EXPECT_EQ(hh.DegreeCount(9), 0);

  const auto top = hh.TopEdges(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, EdgeToIndex(Edge(0, 1), n));
  EXPECT_EQ(top[0].count, 4);
  EXPECT_EQ(top[1].key, EdgeToIndex(Edge(2, 3), n));
  EXPECT_EQ(top[1].count, 2);
  const auto degrees = hh.TopDegrees(2);
  ASSERT_EQ(degrees.size(), 2u);
  EXPECT_EQ(degrees[0].count, 4);
  EXPECT_FALSE(hh.saturated());
}

TEST(HeavyHitterTest, TopKTieBreaksByKeyAscending) {
  const uint64_t n = 16;
  HeavyHitterSketch hh(SmallHHParams(n));
  // Three edges, same count: ranking must be deterministic so folded
  // and single-process sketches agree.
  const Edge edges[] = {Edge(7, 9), Edge(0, 3), Edge(2, 5)};
  for (const Edge& e : edges) hh.Update({e, UpdateType::kInsert});
  const auto top = hh.TopEdges(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_LT(top[0].key, top[1].key);
  EXPECT_LT(top[1].key, top[2].key);
}

TEST(HeavyHitterTest, SerializeRoundTripIsCanonical) {
  const uint64_t n = 32;
  HeavyHitterSketch hh(SmallHHParams(n));
  for (NodeId u = 0; u + 1 < 20; ++u) {
    hh.Update({Edge(u, u + 1), UpdateType::kInsert});
  }
  const std::vector<uint8_t> bytes = hh.Serialize();
  Result<HeavyHitterSketch> back = HeavyHitterSketch::Deserialize(
      bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value().params() == hh.params());
  EXPECT_EQ(back.value().updates_applied(), hh.updates_applied());
  EXPECT_EQ(back.value().EdgeCount(Edge(3, 4)), 1);
  // Canonical: re-serialization reproduces the bytes exactly.
  EXPECT_EQ(back.value().Serialize(), bytes);
}

TEST(HeavyHitterTest, DeserializeRejectsGarbage) {
  const uint64_t n = 16;
  HeavyHitterSketch hh(SmallHHParams(n));
  hh.Update({Edge(1, 2), UpdateType::kInsert});
  std::vector<uint8_t> bytes = hh.Serialize();

  // Truncations at every prefix must bounce, never crash or overread.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{16}, bytes.size() - 1}) {
    Result<HeavyHitterSketch> r =
        HeavyHitterSketch::Deserialize(bytes.data(), cut);
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
  // Bad magic.
  std::vector<uint8_t> bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_FALSE(HeavyHitterSketch::Deserialize(bad.data(), bad.size()).ok());
  // Trailing junk is a framing error, not silently ignored.
  bad = bytes;
  bad.push_back(0);
  EXPECT_FALSE(HeavyHitterSketch::Deserialize(bad.data(), bad.size()).ok());
}

TEST(HeavyHitterTest, PartitionedFoldIsBitwiseIdenticalToSingleStream) {
  // The distributed exactness argument in miniature: partition a
  // stream across three sketches (as shard routing would), sum-merge,
  // and the folded sketch's canonical bytes equal the single-stream
  // sketch's.
  const uint64_t n = 64;
  HeavyHitterSketch parts[3] = {HeavyHitterSketch(SmallHHParams(n)),
                                HeavyHitterSketch(SmallHHParams(n)),
                                HeavyHitterSketch(SmallHHParams(n))};
  HeavyHitterSketch single(SmallHHParams(n));
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 13;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  size_t i = 0;
  for (const Edge& e : edges) {
    const GraphUpdate u{e, UpdateType::kInsert};
    parts[i++ % 3].Update(u);
    single.Update(u);
  }
  ASSERT_TRUE(parts[0].Merge(parts[1]).ok());
  ASSERT_TRUE(parts[0].Merge(parts[2]).ok());
  EXPECT_EQ(parts[0].Serialize(), single.Serialize());
}

TEST(HeavyHitterTest, SaturationIsReportedNotSilent) {
  HeavyHitterParams p = SmallHHParams(32);
  p.candidates = 4;
  HeavyHitterSketch hh(p);
  for (NodeId u = 0; u + 1 < 20; ++u) {
    hh.Update({Edge(u, u + 1), UpdateType::kInsert});
  }
  EXPECT_TRUE(hh.saturated());
  // Counts stay exact even for dropped candidates; only top-k
  // enumeration is lossy.
  EXPECT_EQ(hh.EdgeCount(Edge(15, 16)), 1);
  EXPECT_LE(hh.TopEdges(20).size(), 4u);
}

// ---- GraphZeppelin integration --------------------------------------------

TEST(HeavyHitterTest, InstanceTracksOnBothUpdatePaths) {
  const uint64_t n = 32;
  GraphZeppelin off(BaseConfig(n, 3));
  ASSERT_TRUE(off.Init().ok());
  EXPECT_EQ(off.heavy_hitters(), nullptr);  // Disabled by default.

  GraphZeppelin gz(HHConfig(n, 3));
  ASSERT_TRUE(gz.Init().ok());
  ASSERT_NE(gz.heavy_hitters(), nullptr);
  // Single-update path.
  gz.Update({Edge(0, 1), UpdateType::kInsert});
  // Span path (the zero-alloc bulk route).
  std::vector<GraphUpdate> span;
  span.push_back({Edge(0, 1), UpdateType::kInsert});
  span.push_back({Edge(0, 1), UpdateType::kDelete});
  span.push_back({Edge(2, 3), UpdateType::kInsert});
  gz.Update(span.data(), span.size());

  EXPECT_EQ(gz.heavy_hitters()->updates_applied(), 4u);
  EXPECT_EQ(gz.heavy_hitters()->EdgeCount(Edge(0, 1)), 1);
  EXPECT_EQ(gz.heavy_hitters()->EdgeCount(Edge(2, 3)), 1);
  EXPECT_EQ(gz.heavy_hitters()->DegreeCount(0), 1);
}

// ---- Distributed identity, both substrates --------------------------------

class WorkloadShardedTest : public ::testing::TestWithParam<Substrate> {};

TEST_P(WorkloadShardedTest, HeavyHitterFoldMatchesSingleInstanceBitwise) {
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.12;
  ep.seed = 17;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  std::vector<GraphUpdate> updates;
  for (const Edge& e : edges) updates.push_back({e, UpdateType::kInsert});
  // A few deletes so the turnstile path is exercised end to end.
  for (size_t i = 0; i < 5 && i < edges.size(); ++i) {
    updates.push_back({edges[i], UpdateType::kDelete});
  }

  const GraphZeppelinConfig config = HHConfig(n, 23);
  ShardCluster sharded(config, 3, OnSubstrate(GetParam(), 3));
  ASSERT_TRUE(sharded.Start().ok());
  GraphZeppelin single(config);
  ASSERT_TRUE(single.Init().ok());
  ASSERT_TRUE(sharded.Update(updates.data(), updates.size()).ok());
  single.Update(updates.data(), updates.size());

  Result<HeavyHitterSketch> folded = sharded.HeavyHitters();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  ASSERT_NE(single.heavy_hitters(), nullptr);
  EXPECT_EQ(folded.value().Serialize(), single.heavy_hitters()->Serialize());
  EXPECT_EQ(folded.value().updates_applied(), updates.size());
}

TEST_P(WorkloadShardedTest, HeavyHittersDisabledIsFailedPrecondition) {
  ShardCluster sharded(BaseConfig(32, 5), 2, OnSubstrate(GetParam(), 2));
  ASSERT_TRUE(sharded.Start().ok());
  EXPECT_EQ(sharded.HeavyHitters().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_P(WorkloadShardedTest, HeavyHittersSurviveLiveSplitAndRemove) {
  // CM counters are additive state the XOR migration deltas do not
  // carry: a split must leave the sum untouched (source keeps its
  // counters, target starts empty) and a remove must fold the retired
  // shard's counters into every later answer. Ingestion stays live
  // through the split, exactly like the reshard chaos drills.
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 29;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  std::vector<GraphUpdate> updates;
  for (const Edge& e : edges) updates.push_back({e, UpdateType::kInsert});

  const GraphZeppelinConfig config = HHConfig(n, 31);
  ShardCluster sharded(config, 2, OnSubstrate(GetParam(), 2));
  ASSERT_TRUE(sharded.Start().ok());
  GraphZeppelin single(config);
  ASSERT_TRUE(single.Init().ok());

  size_t fed = 0;
  auto feed_burst = [&](size_t count) {
    count = std::min(count, updates.size() - fed);
    if (count == 0) return;
    EXPECT_TRUE(sharded.Update(updates.data() + fed, count).ok());
    single.Update(updates.data() + fed, count);
    fed += count;
  };

  feed_burst(updates.size() / 3);
  Result<int> target =
      sharded.BeginSplitShard(0, SubstrateEndpoint(GetParam()));
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  while (sharded.migration_active()) {
    feed_burst(64);  // Live split: ingestion interleaves with chunks.
    ASSERT_TRUE(sharded.PumpMigration().ok());
  }
  feed_burst(updates.size() / 3);
  // Remove a shard: its counters retire into the coordinator.
  ASSERT_TRUE(sharded.RemoveShard(1).ok());
  feed_burst(updates.size());  // The rest.
  ASSERT_EQ(fed, updates.size());

  Result<HeavyHitterSketch> folded = sharded.HeavyHitters();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().Serialize(), single.heavy_hitters()->Serialize());

  // And the connectivity answer still matches too (the split/remove
  // was invisible on both planes).
  const ConnectivityResult got = ClusterForest(&sharded);
  const ConnectivityResult want = single.ListSpanningForest();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, want.num_components);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, WorkloadShardedTest,
    ::testing::Values(Substrate::kThread, Substrate::kProcess),
    [](const ::testing::TestParamInfo<Substrate>& info) {
      return SubstrateName(info.param);
    });

// ---- Cluster-level workloads on every substrate -------------------------

class WorkloadClusterTest : public ::testing::TestWithParam<Substrate> {
 protected:
  SubstrateShards shards_{GetParam()};
};

TEST_P(WorkloadClusterTest, ReplicatedHeavyHittersMatchSingleProcess) {
  // R=2: replicas of a shard ingest the same updates, so the fold must
  // read ONE replica per shard (kOnePerShard), not sum both. The
  // cluster's answer equals a single unsharded instance's, bitwise.
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.08;
  ep.seed = 37;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  std::vector<GraphUpdate> updates;
  for (const Edge& e : edges) updates.push_back({e, UpdateType::kInsert});

  const GraphZeppelinConfig config = HHConfig(n, 41);
  ShardClusterOptions options;
  options.replication_factor = 2;
  ShardCluster cluster(config, 2, shards_.Place(2, options));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());

  GraphZeppelin single(config);
  ASSERT_TRUE(single.Init().ok());
  single.Update(updates.data(), updates.size());

  Result<HeavyHitterSketch> folded = cluster.HeavyHitters();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().Serialize(), single.heavy_hitters()->Serialize());
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(WorkloadClusterTest, ErdosRenyiForestsArePairwiseEdgeDisjoint) {
  // The decomposition pin on the full distributed path: peel k forests
  // from a CLUSTER's folded snapshot of a randomized ER stream; the
  // forests must be pairwise edge-disjoint and each a subgraph of the
  // streamed graph.
  const uint64_t n = 32;
  const int k = 3;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.3;
  ep.seed = 43;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();

  GraphZeppelinConfig config = BaseConfig(n, 47);
  config.rounds = RoundsForForests(n, k);
  ShardCluster cluster(config, 2, shards_.Place(2));
  ASSERT_TRUE(cluster.Start().ok());
  for (const Edge& e : edges) {
    const GraphUpdate u{e, UpdateType::kInsert};
    ASSERT_TRUE(cluster.Update(&u, 1).ok());
  }
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();

  const Result<ForestDecomposition> extracted =
      ExtractSpanningForests(folded.value(), k);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  const ForestDecomposition& d = extracted.value();
  ASSERT_FALSE(d.failed);
  ASSERT_EQ(d.forests.size(), static_cast<size_t>(k));

  std::set<uint64_t> streamed;
  for (const Edge& e : edges) streamed.insert(EdgeToIndex(e, n));
  std::set<uint64_t> seen;
  size_t total = 0;
  for (const EdgeList& forest : d.forests) {
    for (const Edge& e : forest) {
      const uint64_t key = EdgeToIndex(e, n);
      EXPECT_TRUE(streamed.count(key)) << "forest edge not in the stream";
      // Pairwise disjoint <=> no key appears in two forests.
      EXPECT_TRUE(seen.insert(key).second) << "edge in two forests";
      ++total;
    }
  }
  EXPECT_EQ(seen.size(), total);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, WorkloadClusterTest,
    ::testing::Values(Substrate::kThread, Substrate::kProcess,
                      Substrate::kTcp),
    [](const ::testing::TestParamInfo<Substrate>& info) {
      return SubstrateName(info.param);
    });

// ---- Sliding window -------------------------------------------------------

// Explicit last-W ground truth: a deque of the W most recent
// observations; the windowed graph is the set of distinct edges in it.
class ExplicitWindow {
 public:
  ExplicitWindow(uint64_t num_nodes, size_t window)
      : num_nodes_(num_nodes), window_(window) {}

  void Observe(const Edge& e) {
    ring_.push_back(e);
    ++counts_[EdgeToIndex(e, num_nodes_)];
    if (ring_.size() > window_) {
      const Edge old = ring_.front();
      ring_.pop_front();
      auto it = counts_.find(EdgeToIndex(old, num_nodes_));
      if (--it->second == 0) counts_.erase(it);
    }
  }

  size_t live_edges() const { return counts_.size(); }

  ConnectivityResult Components() const {
    AdjacencyMatrixChecker checker(num_nodes_);
    for (const auto& [key, count] : counts_) {
      checker.Update({IndexToEdge(key, num_nodes_), UpdateType::kInsert});
    }
    return checker.ConnectedComponents();
  }

 private:
  uint64_t num_nodes_;
  size_t window_;
  std::deque<Edge> ring_;
  std::map<uint64_t, int> counts_;
};

void ExpectSamePartition(const ConnectivityResult& got,
                         const ConnectivityResult& want, uint64_t n) {
  ASSERT_FALSE(got.failed);
  ASSERT_FALSE(want.failed);
  EXPECT_EQ(got.num_components, want.num_components);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                want.component_of[i] == want.component_of[j])
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(WindowIngestorTest, MatchesExplicitLastWindowGroundTruth) {
  const uint64_t n = 24;
  const size_t W = 40;
  GraphZeppelin gz(BaseConfig(n, 53));
  ASSERT_TRUE(gz.Init().ok());
  WindowIngestorParams wp;
  wp.num_nodes = n;
  wp.window = W;
  WindowIngestor window(wp, [&gz](const GraphUpdate* u, size_t c) {
    gz.Update(u, c);
  });
  ExplicitWindow truth(n, W);

  std::mt19937_64 rng(59);
  for (int i = 1; i <= 400; ++i) {
    const NodeId u = static_cast<NodeId>(rng() % n);
    NodeId v = static_cast<NodeId>(rng() % (n - 1));
    if (v >= u) ++v;
    const Edge e(std::min(u, v), std::max(u, v));
    window.Observe(e);
    truth.Observe(e);
    if (i % 50 == 0) {
      window.Flush();
      EXPECT_EQ(window.live_edges(), truth.live_edges());
      const ConnectivityResult got =
          Connectivity(gz.Snapshot(), /*threads=*/1);
      ExpectSamePartition(got, truth.Components(), n);
    }
  }
  EXPECT_EQ(window.observations(), 400u);
  // Drain: the stream ended, the window decays to empty.
  window.ExpireAll();
  const ConnectivityResult empty = Connectivity(gz.Snapshot(), 1);
  ASSERT_FALSE(empty.failed);
  EXPECT_EQ(empty.num_components, n);
  EXPECT_EQ(window.live_edges(), 0u);
}

TEST(WindowIngestorTest, ReobservationRefreshesWithoutToggling) {
  // The XOR guard: re-observing a live edge must NOT re-insert it
  // (which would toggle it out of the sketches) — it refreshes the
  // edge's presence in the window.
  const uint64_t n = 8;
  std::vector<GraphUpdate> emitted;
  WindowIngestorParams wp;
  wp.num_nodes = n;
  wp.window = 3;
  WindowIngestor window(wp, [&emitted](const GraphUpdate* u, size_t c) {
    emitted.insert(emitted.end(), u, u + c);
  });
  for (int i = 0; i < 5; ++i) window.Observe(Edge(0, 1));
  window.Flush();
  ASSERT_EQ(emitted.size(), 1u);  // One insert, ever.
  EXPECT_EQ(emitted[0].type, UpdateType::kInsert);
  EXPECT_EQ(window.live_edges(), 1u);
  // Only when every retained observation of the edge has expired does
  // the delete go out.
  window.Observe(Edge(2, 3));
  window.Observe(Edge(4, 5));
  window.Observe(Edge(6, 7));  // Pushes the last (0,1) out.
  window.Flush();
  int deletes_01 = 0;
  for (const GraphUpdate& u : emitted) {
    if (u.edge == Edge(0, 1) && u.type == UpdateType::kDelete) ++deletes_01;
  }
  EXPECT_EQ(deletes_01, 1);
  EXPECT_EQ(window.live_edges(), 3u);
}

TEST(WindowIngestorTest, MixedInsertAndExpiryDeleteSlabFoldsToEmpty) {
  // The satellite regression: one emitted slab may carry an edge's
  // insert AND its own expiry delete (short window, long span). Pushed
  // through the pooled batch pipeline as a single span, the slab must
  // fold to the empty sketch — XOR cancellation inside one batch.
  const uint64_t n = 16;
  std::vector<GraphUpdate> slab;
  WindowIngestorParams wp;
  wp.num_nodes = n;
  wp.window = 1;  // Every new observation expires the previous one.
  wp.emit_span = 1024;  // Nothing flushes early: ONE slab at the end.
  size_t sink_calls = 0;
  WindowIngestor window(wp, [&](const GraphUpdate* u, size_t c) {
    ++sink_calls;
    slab.insert(slab.end(), u, u + c);
  });
  window.Observe(Edge(0, 1));
  window.Observe(Edge(2, 3));
  window.Observe(Edge(4, 5));
  window.ExpireAll();
  ASSERT_EQ(sink_calls, 1u);
  ASSERT_EQ(slab.size(), 6u);  // 3 inserts + 3 expiry deletes, mixed.

  // The precondition this test exists for: the same edge's insert and
  // delete live in the SAME slab.
  bool has_insert = false, has_delete = false;
  for (const GraphUpdate& u : slab) {
    if (u.edge == Edge(0, 1)) {
      (u.type == UpdateType::kInsert ? has_insert : has_delete) = true;
    }
  }
  ASSERT_TRUE(has_insert && has_delete);

  GraphZeppelin gz(BaseConfig(n, 61));
  ASSERT_TRUE(gz.Init().ok());
  gz.Update(slab.data(), slab.size());  // One span -> batch pipeline.
  GraphZeppelin fresh(BaseConfig(n, 61));
  ASSERT_TRUE(fresh.Init().ok());
  // Sketch content identical to the never-touched instance. (The
  // update COUNTS differ by construction — 6 vs 0 — so compare the
  // sketches, which is what "folds to the empty sketch" means.)
  GraphSnapshot folded = gz.Snapshot();
  folded.SetUpdates(0);
  EXPECT_TRUE(folded == fresh.Snapshot());
}

TEST(WindowedConnectivityTest, NotificationsVerifyAgainstFreshWindowedFold) {
  // Watchable window queries: every notification must (a) reproduce
  // from the snapshot it carries, and (b) match a FRESH windowed
  // instance driven to the same observation position — the window
  // fold, not the cumulative graph.
  const uint64_t n = 12;
  const size_t W = 8;
  WindowedConnectivityParams params;
  params.config = BaseConfig(n, 67);
  params.window.num_nodes = n;
  params.window.window = W;

  WindowedConnectivity wc(params);
  ASSERT_TRUE(wc.Init().ok());
  wc.standing_queries().Add({StandingQueryKind::kConnected, 0, 11});
  wc.standing_queries().Add({StandingQueryKind::kComponentCount, 0, 0});

  // A path 0-..-11 built left to right; with W=8 the early edges expire
  // as later ones arrive, so connected(0,11) is NEVER true and the
  // component count moves both up (expiry) and down (arrival).
  std::vector<Edge> stream;
  for (NodeId i = 0; i + 1 < n; ++i) stream.push_back(Edge(i, i + 1));
  for (NodeId i = 0; i + 1 < n; ++i) stream.push_back(Edge(i, i + 1));

  struct Seen {
    StandingQuerySpec spec;
    StandingQueryAnswer answer;
    uint64_t position;  // Observation count at evaluation time.
  };
  std::vector<Seen> seen;
  uint64_t observed = 0;
  for (const Edge& e : stream) {
    wc.Observe(e);
    ++observed;
    if (observed % 4 == 0) {
      const Result<size_t> fired = wc.EvaluateStandingQueries(
          1, [&](const StandingQueryNotification& notification,
                 const GraphSnapshot& snapshot) {
            // (a) The carried snapshot reproduces the answer bitwise.
            const ConnectivityResult fold = Connectivity(snapshot, 1);
            EXPECT_TRUE(DeriveStandingAnswer(notification.spec, fold) ==
                        notification.answer);
            seen.push_back({notification.spec, notification.answer,
                            observed});
          });
      ASSERT_TRUE(fired.ok()) << fired.status().ToString();
    }
  }
  ASSERT_FALSE(seen.empty());
  bool connected_notified = false;

  // (b) Replay a fresh windowed instance to each notified position.
  for (const Seen& s : seen) {
    WindowedConnectivity replay(params);
    ASSERT_TRUE(replay.Init().ok());
    for (uint64_t i = 0; i < s.position; ++i) replay.Observe(stream[i]);
    const ConnectivityResult fold = replay.Connectivity();
    EXPECT_TRUE(DeriveStandingAnswer(s.spec, fold) == s.answer)
        << "position " << s.position;
    if (s.spec.kind == StandingQueryKind::kConnected) {
      connected_notified = true;
      EXPECT_FALSE(s.answer.connected);  // 0 and 11 never coexist in W=8.
    }
  }
  EXPECT_TRUE(connected_notified);  // Initial answer always notifies.
}

// ---- k-edge-connectivity --------------------------------------------------

GraphSnapshot SnapshotOf(uint64_t n, uint64_t seed, int k,
                         const EdgeList& edges) {
  GraphZeppelinConfig config = BaseConfig(n, seed);
  config.rounds = RoundsForForests(n, k);
  GraphZeppelin gz(config);
  GZ_CHECK_OK(gz.Init());
  for (const Edge& e : edges) gz.Update({e, UpdateType::kInsert});
  return gz.Snapshot();
}

TEST(KConnectivityTest, PathCertifiesConnectivityOne) {
  const uint64_t n = 8;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back(Edge(i, i + 1));
  const Result<KConnectivityResult> r =
      KEdgeConnectivity(SnapshotOf(n, 71, 2, edges), 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r.value().sketch_failed);
  EXPECT_EQ(r.value().certified_connectivity, 1);
  EXPECT_FALSE(r.value().is_k_edge_connected);
}

TEST(KConnectivityTest, CycleCertifiesConnectivityTwo) {
  const uint64_t n = 8;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back(Edge(i, i + 1));
  edges.push_back(Edge(0, n - 1));
  {
    const Result<KConnectivityResult> r =
        KEdgeConnectivity(SnapshotOf(n, 73, 2, edges), 2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().certified_connectivity, 2);
    EXPECT_TRUE(r.value().is_k_edge_connected);
  }
  {
    // Asking beyond the true connectivity: the exact cap shows through.
    const Result<KConnectivityResult> r =
        KEdgeConnectivity(SnapshotOf(n, 73, 3, edges), 3);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().certified_connectivity, 2);
    EXPECT_FALSE(r.value().is_k_edge_connected);
  }
}

TEST(KConnectivityTest, BridgedCliquesCertifyConnectivityOne) {
  // Two K4s joined by a single bridge: locally 3-edge-connected, but
  // the bridge caps the graph at 1 — the certificate must retain it.
  const uint64_t n = 8;
  EdgeList edges;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) edges.push_back(Edge(u, v));
  }
  for (NodeId u = 4; u < 8; ++u) {
    for (NodeId v = u + 1; v < 8; ++v) edges.push_back(Edge(u, v));
  }
  edges.push_back(Edge(3, 4));
  const Result<KConnectivityResult> r =
      KEdgeConnectivity(SnapshotOf(n, 79, 2, edges), 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().certified_connectivity, 1);
  EXPECT_FALSE(r.value().is_k_edge_connected);
  // The certificate is small regardless of local density.
  EXPECT_LE(r.value().certificate.size(), 2 * (n - 1));
}

TEST(KConnectivityTest, DisconnectedCertifiesZero) {
  const uint64_t n = 8;
  const EdgeList edges = {Edge(0, 1), Edge(2, 3)};
  const Result<KConnectivityResult> r =
      KEdgeConnectivity(SnapshotOf(n, 83, 2, edges), 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().certified_connectivity, 0);
  EXPECT_FALSE(r.value().is_k_edge_connected);
}

TEST(KConnectivityTest, RejectsInvalidK) {
  const uint64_t n = 8;
  const EdgeList edges = {Edge(0, 1)};
  const GraphSnapshot snap = SnapshotOf(n, 89, 2, edges);
  EXPECT_EQ(KEdgeConnectivity(snap, 0).status().code(),
            StatusCode::kInvalidArgument);
  // Beyond the snapshot's round budget: rejected, not clamped.
  const int over = MaxForestsForRounds(n, snap.rounds()) + 1;
  EXPECT_EQ(KEdgeConnectivity(snap, over).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KConnectivityTest, EdgeConnectivityHelperCapsAndHandlesIsolation) {
  // K4: lambda = 3.
  EdgeList k4;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) k4.push_back(Edge(u, v));
  }
  EXPECT_EQ(EdgeConnectivityUpTo(4, k4, 5), 3);
  EXPECT_EQ(EdgeConnectivityUpTo(4, k4, 2), 2);  // The cap caps.
  // An isolated vertex separates for free.
  EXPECT_EQ(EdgeConnectivityUpTo(5, k4, 3), 0);
  // Single vertex: trivially infinite, capped.
  EXPECT_EQ(EdgeConnectivityUpTo(1, {}, 3), 3);
}

}  // namespace
}  // namespace gz
