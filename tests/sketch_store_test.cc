// Tests for the in-memory and on-disk sketch stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/sketch_store.h"
#include "util/random.h"

namespace gz {
namespace {

NodeSketchParams MakeParams(uint64_t num_nodes, uint64_t seed) {
  NodeSketchParams p;
  p.num_nodes = num_nodes;
  p.seed = seed;
  p.rounds = 4;  // Keep tests fast.
  return p;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

NodeSketch SketchOf(const NodeSketchParams& params,
                    const std::vector<uint64_t>& indices) {
  NodeSketch s(params);
  s.UpdateBatch(indices.data(), indices.size());
  return s;
}

class SketchStoreTest : public ::testing::TestWithParam<bool> {
 protected:
  // Builds a RAM or disk store according to the param.
  std::unique_ptr<SketchStore> MakeStore(const NodeSketchParams& params,
                                         const char* name) {
    if (!GetParam()) return std::make_unique<InMemorySketchStore>(params);
    auto store = std::make_unique<OnDiskSketchStore>(params, TempPath(name));
    GZ_CHECK_OK(store->Init());
    return store;
  }
};

TEST_P(SketchStoreTest, FreshStoreHoldsEmptySketches) {
  const NodeSketchParams params = MakeParams(8, 1);
  auto store = MakeStore(params, "store_fresh.bin");
  NodeSketch out(store->params());
  store->Load(3, &out);
  NodeSketch empty(store->params());
  EXPECT_EQ(out, empty);
}

TEST_P(SketchStoreTest, MergeDeltaAccumulates) {
  const NodeSketchParams params = MakeParams(8, 2);
  auto store = MakeStore(params, "store_acc.bin");
  const NodeSketchParams real = store->params();

  store->MergeDelta(2, SketchOf(real, {1, 5}));
  store->MergeDelta(2, SketchOf(real, {9}));

  NodeSketch expect = SketchOf(real, {1, 5, 9});
  NodeSketch got(real);
  store->Load(2, &got);
  EXPECT_EQ(got, expect);
}

TEST_P(SketchStoreTest, NodesAreIndependent) {
  const NodeSketchParams params = MakeParams(4, 3);
  auto store = MakeStore(params, "store_indep.bin");
  const NodeSketchParams real = store->params();
  store->MergeDelta(0, SketchOf(real, {1}));
  store->MergeDelta(3, SketchOf(real, {2}));

  NodeSketch got0(real), got3(real), empty(real);
  store->Load(0, &got0);
  store->Load(3, &got3);
  EXPECT_EQ(got0, SketchOf(real, {1}));
  EXPECT_EQ(got3, SketchOf(real, {2}));
  NodeSketch got1(real);
  store->Load(1, &got1);
  EXPECT_EQ(got1, empty);
}

TEST_P(SketchStoreTest, XorCancellation) {
  const NodeSketchParams params = MakeParams(4, 4);
  auto store = MakeStore(params, "store_cancel.bin");
  const NodeSketchParams real = store->params();
  store->MergeDelta(1, SketchOf(real, {3}));
  store->MergeDelta(1, SketchOf(real, {3}));  // Same toggle cancels.
  NodeSketch got(real), empty(real);
  store->Load(1, &got);
  EXPECT_EQ(got, empty);
}

TEST_P(SketchStoreTest, ConcurrentMergesMatchSerial) {
  const NodeSketchParams params = MakeParams(16, 5);
  auto store = MakeStore(params, "store_conc.bin");
  const NodeSketchParams real = store->params();

  // 4 threads x 50 deltas, all hammering the same few nodes.
  constexpr int kThreads = 4;
  constexpr int kDeltas = 50;
  std::vector<std::vector<std::vector<uint64_t>>> plans(kThreads);
  SplitMix64 rng(99);
  const uint64_t max_index = NumPossibleEdges(16);
  for (int t = 0; t < kThreads; ++t) {
    for (int d = 0; d < kDeltas; ++d) {
      std::vector<uint64_t> batch;
      for (int i = 0; i < 20; ++i) batch.push_back(rng.NextBelow(max_index));
      plans[t].push_back(std::move(batch));
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& batch : plans[t]) {
        const NodeId node = static_cast<NodeId>(batch[0] % 3);
        store->MergeDelta(node, SketchOf(real, batch));
      }
    });
  }
  for (auto& t : threads) t.join();

  // Serial reference.
  std::vector<NodeSketch> expect;
  for (int i = 0; i < 3; ++i) expect.emplace_back(real);
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& batch : plans[t]) {
      const NodeId node = static_cast<NodeId>(batch[0] % 3);
      expect[node].Merge(SketchOf(real, batch));
    }
  }
  for (NodeId node = 0; node < 3; ++node) {
    NodeSketch got(real);
    store->Load(node, &got);
    EXPECT_EQ(got, expect[node]) << "node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(RamAndDisk, SketchStoreTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Disk" : "Ram";
                         });

TEST_P(SketchStoreTest, StoreOverwrites) {
  const NodeSketchParams params = MakeParams(6, 9);
  auto store = MakeStore(params, "store_overwrite.bin");
  const NodeSketchParams real = store->params();
  store->MergeDelta(2, SketchOf(real, {1, 2}));
  // Overwrite with a fresh sketch: prior contents must vanish.
  store->Store(2, SketchOf(real, {4}));
  NodeSketch got(real);
  store->Load(2, &got);
  EXPECT_EQ(got, SketchOf(real, {4}));
}

TEST_P(SketchStoreTest, CaptureHoldsEveryRecordAndOutlivesWrites) {
  // Enough nodes that the disk store's capture spans several chunked
  // preads; every record must match Load(), and the capture must keep
  // its bytes once the store is written again (the RAM store's capture
  // shares its arena until Unshare() clones it).
  NodeSketchParams params = MakeParams(600, 11);
  params.rounds = 0;  // Full-size records: ~25 KB each, ~15 MB in all.
  auto store = MakeStore(params, "store_capture.bin");
  const NodeSketchParams real = store->params();
  SplitMix64 rng(11);
  const uint64_t max_index = NumPossibleEdges(real.num_nodes);
  for (NodeId node = 0; node < real.num_nodes; node += 7) {
    store->MergeDelta(node, SketchOf(real, {rng.NextBelow(max_index)}));
  }
  const SketchArena capture = store->Capture();
  ASSERT_EQ(capture.num_records(), real.num_nodes);
  NodeSketch loaded(real);
  std::vector<uint8_t> record(capture.record_bytes());
  for (NodeId node = 0; node < real.num_nodes; ++node) {
    store->Load(node, &loaded);
    loaded.SerializeTo(record.data());
    ASSERT_EQ(0, std::memcmp(record.data(), capture.record(node),
                             record.size()))
        << "node " << node;
  }

  const std::vector<uint8_t> before(capture.data(),
                                    capture.data() + capture.size_bytes());
  store->Unshare();
  store->MergeDelta(0, SketchOf(real, {1, 2, 3}));
  EXPECT_TRUE(std::equal(before.begin(), before.end(), capture.data()));
  store->Load(0, &loaded);
  loaded.SerializeTo(record.data());
  EXPECT_NE(0, std::memcmp(record.data(), capture.record(0), record.size()));
}

TEST_P(SketchStoreTest, ReadRecordsStreamsCaptureBytesInWholeRecords) {
  // ~15 MB of full-size records, so the disk store's ranges span several
  // chunked preads. Any range must stream exactly Capture()'s bytes, a
  // whole number of records per sink call, and a sink error must stop
  // the stream and come back.
  NodeSketchParams params = MakeParams(600, 13);
  params.rounds = 0;
  auto store = MakeStore(params, "store_read_records.bin");
  const NodeSketchParams real = store->params();
  SplitMix64 rng(13);
  const uint64_t max_index = NumPossibleEdges(real.num_nodes);
  for (NodeId node = 0; node < real.num_nodes; node += 5) {
    store->MergeDelta(node, SketchOf(real, {rng.NextBelow(max_index)}));
  }
  const SketchArena capture = store->Capture();
  const size_t record = capture.record_bytes();
  for (const auto& [lo, hi] : {std::pair<uint64_t, uint64_t>{0, 600},
                               std::pair<uint64_t, uint64_t>{5, 431}}) {
    std::vector<uint8_t> streamed;
    int calls = 0;
    ASSERT_TRUE(store
                    ->ReadRecords(lo, hi,
                                  [&](const uint8_t* records, size_t bytes) {
                                    EXPECT_EQ(bytes % record, 0u);
                                    streamed.insert(streamed.end(), records,
                                                    records + bytes);
                                    ++calls;
                                    return Status::Ok();
                                  })
                    .ok());
    ASSERT_EQ(streamed.size(), (hi - lo) * record);
    EXPECT_EQ(0, std::memcmp(streamed.data(), capture.record(lo),
                             streamed.size()))
        << "[" << lo << ", " << hi << ")";
    if (GetParam()) {
      EXPECT_GT(calls, 1);  // Several bounded preads.
    }
  }
  int calls = 0;
  const Status s = store->ReadRecords(0, 600, [&](const uint8_t*, size_t) {
    ++calls;
    return Status::IoError("sink full");
  });
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 1);
}

TEST_P(SketchStoreTest, MergeRecordsMatchesPerNodeMergeDelta) {
  // The write-side twin of ReadRecords: XORing a range of serialized
  // records into the store must leave exactly the bytes a per-node
  // MergeDelta of the same records leaves. Full-size records, so the
  // disk store's range spans several bounded read-XOR-write pieces.
  NodeSketchParams params = MakeParams(600, 17);
  params.rounds = 0;
  auto bulk = MakeStore(params, "store_merge_records_bulk.bin");
  auto per_node = MakeStore(params, "store_merge_records_node.bin");
  const NodeSketchParams real = bulk->params();
  SplitMix64 rng(17);
  const uint64_t max_index = NumPossibleEdges(real.num_nodes);
  for (NodeId node = 0; node < real.num_nodes; node += 5) {
    const NodeSketch delta = SketchOf(real, {rng.NextBelow(max_index)});
    bulk->MergeDelta(node, delta);
    per_node->MergeDelta(node, delta);
  }
  const uint64_t lo = 5, hi = 431;
  const size_t record = NodeSketch::SerializedSizeFor(real);
  std::vector<uint8_t> records((hi - lo) * record);
  for (uint64_t node = lo; node < hi; ++node) {
    SketchOf(real, {rng.NextBelow(max_index), rng.NextBelow(max_index)})
        .SerializeTo(records.data() + (node - lo) * record);
  }

  bulk->MergeRecords(lo, hi, records.data());
  NodeSketch scratch(real);
  for (uint64_t node = lo; node < hi; ++node) {
    scratch.DeserializeFrom(records.data() + (node - lo) * record);
    per_node->MergeDelta(static_cast<NodeId>(node), scratch);
  }
  const SketchArena got = bulk->Capture();
  const SketchArena want = per_node->Capture();
  ASSERT_EQ(got.size_bytes(), want.size_bytes());
  EXPECT_EQ(0, std::memcmp(got.record(0), want.record(0), got.size_bytes()));
}

TEST(InMemorySketchStoreTest, WritingASharedArenaAborts) {
  InMemorySketchStore store(MakeParams(4, 12));
  const SketchArena capture = store.Capture();
  EXPECT_DEATH(store.MergeDelta(1, SketchOf(store.params(), {2})),
               "Unshare");
}

TEST(OnDiskSketchStoreTest, DiskByteSizeMatchesRecords) {
  const NodeSketchParams params = MakeParams(10, 6);
  OnDiskSketchStore store(params, TempPath("store_size.bin"));
  ASSERT_TRUE(store.Init().ok());
  NodeSketch prototype(store.params());
  EXPECT_EQ(store.DiskByteSize(), prototype.SerializedSize() * 10);
  // RAM footprint excludes the sketches themselves.
  EXPECT_LT(store.RamByteSize(), store.DiskByteSize());
}

TEST(OnDiskSketchStoreTest, TracksIoCounters) {
  const NodeSketchParams params = MakeParams(4, 7);
  OnDiskSketchStore store(params, TempPath("store_io.bin"));
  ASSERT_TRUE(store.Init().ok());
  store.MergeDelta(0, SketchOf(store.params(), {3}));
  EXPECT_GT(store.bytes_read(), 0u);
  EXPECT_GT(store.bytes_written(), 0u);
}

TEST(InMemorySketchStoreTest, RamByteSizeCountsSketches) {
  const NodeSketchParams params = MakeParams(8, 8);
  InMemorySketchStore store(params);
  NodeSketch prototype(store.params());
  EXPECT_GE(store.RamByteSize(), prototype.ByteSize() * 8);
}

}  // namespace
}  // namespace gz
