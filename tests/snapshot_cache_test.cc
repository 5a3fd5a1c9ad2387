// SnapshotCache plan/refresh agreement: PlannedPulls() must predict
// EXACTLY the pulls Refresh() makes at the same (epoch, marks) — the
// two consult one shared needs-pull predicate, and QuerySession's
// seqlock depends on the plan being exact (it pre-stages one buffer
// per planned pull; an unplanned pull inside Refresh would fail the
// refresh, a planned-but-skipped one would leak a stale stage).
//
// And the fold itself: through a seeded random sequence of shard
// transitions, the incrementally refreshed merged snapshot must stay
// bitwise equal to a cold-built cache and to the XOR of the live
// shards' contents, without the cache ever writing the puller's bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "core/graph_zeppelin.h"
#include "core/snapshot_cache.h"
#include "util/check.h"

namespace gz {
namespace {

constexpr uint64_t kNodes = 24;
constexpr uint64_t kSeed = 1234;

GraphZeppelinConfig Config() {
  GraphZeppelinConfig c;
  c.num_nodes = kNodes;
  c.seed = kSeed;  // Every shard shares the seed — mergeable sketches.
  c.disk_dir = ::testing::TempDir();
  return c;
}

// A toy "cluster": per-shard in-process instances, watermarks tracked
// the way a coordinator tracks them (ingested count, delta_seq 0).
class SnapshotCachePlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int s = 0; s < 3; ++s) AddShard();
    // A path spread across the shards: 0-1-2-...-8.
    Ingest(0, {{Edge(0, 1), UpdateType::kInsert},
               {Edge(1, 2), UpdateType::kInsert},
               {Edge(2, 3), UpdateType::kInsert}});
    Ingest(1, {{Edge(3, 4), UpdateType::kInsert},
               {Edge(4, 5), UpdateType::kInsert}});
    Ingest(2, {{Edge(5, 6), UpdateType::kInsert},
               {Edge(6, 7), UpdateType::kInsert},
               {Edge(7, 8), UpdateType::kInsert}});
  }

  void AddShard() {
    shards_.push_back(std::make_unique<GraphZeppelin>(Config()));
    ASSERT_TRUE(shards_.back()->Init().ok());
  }

  void Ingest(int shard, const std::vector<GraphUpdate>& updates) {
    for (const GraphUpdate& u : updates) shards_[shard]->Update(u);
    shards_[shard]->Flush();
  }

  // The cluster position over the live (non-vanished) shards.
  ShardWatermarks Marks(const std::vector<int>& live) const {
    ShardWatermarks marks;
    for (const int s : live) {
      ShardWatermark mark;
      mark.num_updates = shards_[s]->num_updates_ingested();
      marks.emplace(s, mark);
    }
    return marks;
  }

  // Refresh + the assertion under test: the shards the puller was
  // actually asked for are exactly PlannedPulls(), in count AND in
  // identity (nodes_per_chunk = 0, so one pull per pulled shard).
  void RefreshAndCheckPlan(uint64_t epoch, const ShardWatermarks& marks) {
    std::vector<int> plan = cache_.PlannedPulls(epoch, marks);
    const uint64_t pulls_before = cache_.range_pulls();
    std::vector<int> pulled;
    const Status s = cache_.Refresh(
        epoch, marks, /*total_updates=*/0, shards_[0]->sketch_params(),
        [this, &pulled](int shard, uint64_t lo, uint64_t hi,
                        const uint8_t** data, size_t* size) {
          pulled.push_back(shard);
          delta_ = shards_[shard]->Snapshot().ExtractNodeRange(lo, hi);
          *data = delta_.data();
          *size = delta_.size();
          return Status::Ok();
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::sort(plan.begin(), plan.end());
    std::sort(pulled.begin(), pulled.end());
    EXPECT_EQ(pulled, plan);
    EXPECT_EQ(cache_.range_pulls() - pulls_before, plan.size());
  }

  // Bitwise ground truth: the cached merged snapshot must equal the
  // XOR-fold of the live shards' current snapshots.
  void CheckMergedBitwise(const std::vector<int>& live) {
    GraphSnapshot want = shards_[live[0]]->Snapshot();
    for (size_t i = 1; i < live.size(); ++i) {
      const std::vector<uint8_t> bytes =
          shards_[live[i]]->Snapshot().ExtractNodeRange(0, kNodes);
      ASSERT_TRUE(
          want.MergeSerializedNodeRange(bytes.data(), bytes.size()).ok());
    }
    EXPECT_EQ(want.ExtractNodeRange(0, kNodes),
              cache_.merged().ExtractNodeRange(0, kNodes));
  }

  std::vector<std::unique_ptr<GraphZeppelin>> shards_;
  SnapshotCache cache_{/*nodes_per_chunk=*/0};
  std::vector<uint8_t> delta_;  // The puller's bytes, reused per pull.
};

TEST_F(SnapshotCachePlanTest, PlanPredictsPullsThroughCacheLifecycle) {
  // Cold build: every shard with a nonzero watermark is planned.
  {
    const ShardWatermarks marks = Marks({0, 1, 2});
    std::vector<int> plan = cache_.PlannedPulls(1, marks);
    std::sort(plan.begin(), plan.end());
    EXPECT_EQ(plan, (std::vector<int>{0, 1, 2}));
    RefreshAndCheckPlan(1, marks);
    CheckMergedBitwise({0, 1, 2});
  }
  // No-op refresh at the same position: empty plan, zero pulls.
  {
    const ShardWatermarks marks = Marks({0, 1, 2});
    EXPECT_TRUE(cache_.PlannedPulls(1, marks).empty());
    RefreshAndCheckPlan(1, marks);
  }
  // One shard moves: the plan names it alone.
  {
    Ingest(1, {{Edge(9, 10), UpdateType::kInsert}});
    const ShardWatermarks marks = Marks({0, 1, 2});
    EXPECT_EQ(cache_.PlannedPulls(1, marks), std::vector<int>{1});
    RefreshAndCheckPlan(1, marks);
    CheckMergedBitwise({0, 1, 2});
  }
  // A brand-new shard at the zero watermark: its content is still the
  // XOR identity, so it is installed WITHOUT a pull — not planned.
  {
    AddShard();
    const ShardWatermarks marks = Marks({0, 1, 2, 3});
    EXPECT_TRUE(cache_.PlannedPulls(2, marks).empty());
    RefreshAndCheckPlan(2, marks);
  }
  // A vanished shard (removed from the table, content migrated to a
  // survivor): cancelled from retained content, never pulled — only
  // the survivor whose watermark moved is planned. Linearity lets the
  // test "migrate" by re-ingesting the vanished shard's updates into
  // the survivor: the fold is the same XOR either way.
  {
    Ingest(2, {{Edge(0, 1), UpdateType::kInsert},
               {Edge(1, 2), UpdateType::kInsert},
               {Edge(2, 3), UpdateType::kInsert}});
    const ShardWatermarks marks = Marks({1, 2, 3});
    EXPECT_EQ(cache_.PlannedPulls(3, marks), std::vector<int>{2});
    RefreshAndCheckPlan(3, marks);
    CheckMergedBitwise({1, 2, 3});
  }
}

TEST_F(SnapshotCachePlanTest, InvalidatedCachePlansEveryShard) {
  RefreshAndCheckPlan(1, Marks({0, 1, 2}));
  cache_.Invalidate();
  // After invalidation nothing is recorded: every nonzero-watermark
  // shard is planned again (and a zero-watermark one still is not).
  AddShard();
  const ShardWatermarks marks = Marks({0, 1, 2, 3});
  std::vector<int> plan = cache_.PlannedPulls(1, marks);
  std::sort(plan.begin(), plan.end());
  EXPECT_EQ(plan, (std::vector<int>{0, 1, 2}));
  RefreshAndCheckPlan(1, marks);
  CheckMergedBitwise({0, 1, 2, 3});
}

// One shard of the randomized drill: its instance and the watermark a
// coordinator would report for it.
struct DrillShard {
  std::unique_ptr<GraphZeppelin> gz;
  ShardWatermark mark;
};

TEST(SnapshotCacheRandomTest, TransitionsStayBitwiseEqualToColdBuildAndXor) {
  constexpr uint64_t kChunk = 7;  // Does not divide kNodes = 24.
  constexpr uint64_t kChunks = (kNodes + kChunk - 1) / kChunk;
  std::mt19937_64 rng(20261019);
  std::map<int, DrillShard> live;
  int next_id = 0;
  const auto add_shard = [&]() -> DrillShard& {
    DrillShard& shard = live[next_id++];
    shard.gz = std::make_unique<GraphZeppelin>(Config());
    GZ_CHECK_OK(shard.gz->Init());
    return shard;
  };
  const auto ingest = [&](DrillShard* shard) {
    const int count = 1 + static_cast<int>(rng() % 6);
    for (int i = 0; i < count; ++i) {
      const NodeId u = static_cast<NodeId>(rng() % kNodes);
      NodeId v = static_cast<NodeId>(rng() % kNodes);
      if (u == v) v = (v + 1) % kNodes;
      shard->gz->Update({Edge(u, v), UpdateType::kInsert});
    }
    shard->gz->Flush();
    shard->mark.num_updates = shard->gz->num_updates_ingested();
  };
  // Moves `from`'s content of [lo, hi) to `to`, as a migration does:
  // content changes with no update-count change, so the delta sequence
  // versions it.
  const auto migrate = [](DrillShard* from, DrillShard* to, uint64_t lo,
                          uint64_t hi) {
    const std::vector<uint8_t> delta =
        from->gz->Snapshot().ExtractNodeRange(lo, hi);
    GZ_CHECK_OK(to->gz->MergeSerializedNodeRange(delta.data(), delta.size()));
    GZ_CHECK_OK(
        from->gz->MergeSerializedNodeRange(delta.data(), delta.size()));
    ++to->mark.delta_seq;
    ++from->mark.delta_seq;
  };
  for (int i = 0; i < 3; ++i) ingest(&add_shard());
  const NodeSketchParams params = live.begin()->second.gz->sketch_params();

  // The puller hands out bytes it owns and keeps every piece alive
  // with a pristine copy, so the test sees any write the cache makes.
  struct Handed {
    std::vector<uint8_t> bytes;
    std::vector<uint8_t> pristine;
  };
  std::deque<Handed> handed;
  const SnapshotCache::RangePuller puller =
      [&](int shard, uint64_t lo, uint64_t hi, const uint8_t** data,
          size_t* size) {
        Handed& h = handed.emplace_back();
        h.bytes = live.at(shard).gz->Snapshot().ExtractNodeRange(lo, hi);
        h.pristine = h.bytes;
        *data = h.bytes.data();
        *size = h.bytes.size();
        return Status::Ok();
      };

  SnapshotCache cache(kChunk);
  bool saw_moved = false, saw_unchanged = false, saw_vanished = false,
       saw_new = false;
  for (uint64_t epoch = 1; epoch <= 24; ++epoch) {
    // Transitions: every live shard stays put, ingests, or migrates a
    // random range to another live shard; sometimes one vanishes (its
    // content migrated to a survivor or simply gone) and sometimes a
    // new one joins, at the zero watermark or already ingesting.
    if (epoch > 1) {
      std::vector<int> ids;
      for (const auto& [id, shard] : live) ids.push_back(id);
      for (const int id : ids) {
        switch (rng() % 3) {
          case 0:
            break;
          case 1:
            ingest(&live.at(id));
            break;
          default: {
            const int to = ids[rng() % ids.size()];
            if (to == id) break;
            const uint64_t lo = rng() % kNodes;
            const uint64_t hi = lo + 1 + rng() % (kNodes - lo);
            migrate(&live.at(id), &live.at(to), lo, hi);
          }
        }
      }
      if (live.size() > 1 && rng() % 3 == 0) {
        const auto gone = std::next(live.begin(), rng() % live.size());
        if (rng() % 2 == 0) {
          DrillShard& heir =
              gone == live.begin() ? std::next(gone)->second
                                   : live.begin()->second;
          migrate(&gone->second, &heir, 0, kNodes);
        }
        live.erase(gone);
        saw_vanished = true;
      }
      if (rng() % 3 == 0) {
        DrillShard& fresh = add_shard();
        if (rng() % 2 == 0) ingest(&fresh);
        saw_new = true;
      }
    }
    ShardWatermarks marks;
    GraphSnapshot want = GraphSnapshot::Zero(params);
    for (const auto& [id, shard] : live) {
      marks.emplace(id, shard.mark);
      ASSERT_TRUE(want.Merge(shard.gz->Snapshot()).ok());
    }
    const std::vector<int> plan = cache.PlannedPulls(epoch, marks);
    if (cache.valid()) {
      saw_moved |= !plan.empty();
      saw_unchanged |= plan.size() < marks.size();
    }
    const uint64_t pulls_before = cache.range_pulls();
    Status s = cache.Refresh(epoch, marks, want.num_updates(), params, puller);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(cache.range_pulls() - pulls_before, plan.size() * kChunks);
    for (const Handed& h : handed) EXPECT_EQ(h.bytes, h.pristine);
    handed.clear();
    EXPECT_TRUE(cache.merged() == want) << "epoch " << epoch;

    SnapshotCache cold(kChunk);
    s = cold.Refresh(epoch, marks, want.num_updates(), params, puller);
    ASSERT_TRUE(s.ok()) << s.ToString();
    handed.clear();
    EXPECT_TRUE(cold.merged() == cache.merged()) << "epoch " << epoch;
  }
  EXPECT_EQ(cache.cold_builds(), 1u);
  EXPECT_TRUE(saw_moved && saw_unchanged && saw_vanished && saw_new);
}

}  // namespace
}  // namespace gz
