#include "core/connectivity.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dsu/dsu.h"
#include "sketch/node_record.h"
#include "stream/stream_file.h"
#include "util/check.h"

namespace gz {
namespace {

// Work-size floors below which a round's phase runs inline even when a
// pool exists: late Boruvka rounds are tiny and cost less than the pool
// barrier.
constexpr uint64_t kMinParallelSampleRoots = 1024;
constexpr uint64_t kMinParallelFoldMembers = 512;
constexpr uint64_t kSampleBlockNodes = 1024;
// Members per fold unit: a merged component's round record is folded
// from chunks of this many members, each into its own accumulator, so
// one giant component still spreads over the pool.
constexpr uint64_t kFoldUnitMembers = 64;

// A minimal fixed-size pool for query-time parallelism. One pool lives
// for the duration of a BoruvkaConnectivity call; each Run() is a
// barriered parallel-for over block indices with dynamic chunking
// (atomic grab), so imbalanced blocks spread across threads. Callers
// must keep distinct blocks data-disjoint; determinism comes from
// writing block results into per-block slots, never from run order.
class QueryThreadPool {
 public:
  explicit QueryThreadPool(int num_workers) {
    workers_.reserve(num_workers);
    for (int i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~QueryThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  // Runs body(block) for every block in [0, num_blocks), returning once
  // all blocks are done. The calling thread participates.
  void Run(size_t num_blocks, const std::function<void(size_t)>& body) {
    if (workers_.empty() || num_blocks <= 1) {
      for (size_t b = 0; b < num_blocks; ++b) body(b);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      body_ = &body;
      num_blocks_ = num_blocks;
      next_block_.store(0, std::memory_order_relaxed);
      busy_ = static_cast<int>(workers_.size());
      ++epoch_;
    }
    work_cv_.notify_all();
    size_t b;
    while ((b = next_block_.fetch_add(1, std::memory_order_relaxed)) <
           num_blocks) {
      body(b);
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return busy_ == 0; });
    body_ = nullptr;
  }

 private:
  void WorkerLoop() {
    uint64_t seen_epoch = 0;
    for (;;) {
      const std::function<void(size_t)>* body;
      size_t num_blocks;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
        if (stop_) return;
        seen_epoch = epoch_;
        body = body_;
        num_blocks = num_blocks_;
      }
      size_t b;
      while ((b = next_block_.fetch_add(1, std::memory_order_relaxed)) <
             num_blocks) {
        (*body)(b);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--busy_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_, done_cv_;
  const std::function<void(size_t)>* body_ = nullptr;
  std::atomic<size_t> next_block_{0};
  size_t num_blocks_ = 0;
  int busy_ = 0;
  uint64_t epoch_ = 0;
  bool stop_ = false;
};

// Per-block output slot of the sampling phase.
struct SampleBlock {
  EdgeList candidates;
  bool any_fail = false;
};

}  // namespace

int ResolveQueryThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(hw == 0 ? 1u : hw, 8u));
}

ConnectivityResult Connectivity(const GraphSnapshot& snapshot,
                                int num_threads) {
  return BoruvkaConnectivity(snapshot, /*first_round=*/0, /*num_rounds=*/-1,
                             ResolveQueryThreads(num_threads));
}

ConnectivityResult BoruvkaConnectivity(const GraphSnapshot& snapshot,
                                       int first_round, int num_rounds,
                                       int num_threads) {
  GZ_CHECK_MSG(snapshot.valid(), "querying an empty snapshot");
  const NodeRecordLayout layout(snapshot.params());
  const uint64_t num_nodes = snapshot.num_nodes();
  GZ_CHECK(first_round >= 0 && first_round < layout.rounds());
  const int last_round = num_rounds < 0
                             ? layout.rounds()
                             : std::min(layout.rounds(),
                                        first_round + num_rounds);
  const uint8_t* const records = snapshot.record(0);
  const size_t record_bytes = layout.record_bytes();
  const size_t round_bytes = layout.round_bytes();

  // Spawn the pool only when a parallel gate can actually fire: below
  // the sampling floor neither phase ever goes parallel, and thread
  // create/join would dominate the whole query on small graphs.
  const int threads = std::max(1, num_threads);
  std::unique_ptr<QueryThreadPool> pool;
  if (threads > 1 && num_nodes >= kMinParallelSampleRoots) {
    pool = std::make_unique<QueryThreadPool>(threads - 1);
  }

  ConnectivityResult result;
  Dsu dsu(num_nodes);
  // root_of freezes each node's representative at the top of the round;
  // the parallel phases read it instead of calling Dsu::Find, whose
  // path compression is not safe under concurrency.
  std::vector<NodeId> root_of(num_nodes);
  // Members grouped by root, ascending (a counting sort by root_of):
  // root r's members are members[member_pos[r] .. member_pos[r + 1]).
  std::vector<NodeId> members(num_nodes);
  std::vector<uint64_t> member_pos(num_nodes + 1);
  // A merged root's first fold unit (-1 for singletons); its units are
  // consecutive, one per kFoldUnitMembers members.
  std::vector<int64_t> first_unit(num_nodes, -1);
  struct FoldUnit {
    uint64_t begin, end;  // Range of `members`.
  };
  std::vector<FoldUnit> units;
  // One round record per fold unit: the private accumulators.
  std::vector<uint8_t> accumulators;
  const size_t num_blocks =
      (num_nodes + kSampleBlockNodes - 1) / kSampleBlockNodes;
  std::vector<SampleBlock> blocks(num_blocks);
  bool complete = false;

  for (int round = first_round; round < last_round && !complete; ++round) {
    result.rounds_used = round - first_round + 1;
    for (uint64_t i = 0; i < num_nodes; ++i) {
      root_of[i] = static_cast<NodeId>(dsu.Find(i));
      first_unit[i] = -1;
    }
    const uint64_t live_roots = dsu.num_sets();
    // Node `node`'s own round-`round` sketch, in the snapshot's arena.
    auto node_round = [&](uint64_t node) {
      return layout.Round(records + node * record_bytes, round);
    };

    // Phase 1: fold each merged component's round-`round` record from
    // its members' records into accumulators, in parallel over units.
    // XOR is order-free, so the bytes are identical for any split.
    units.clear();
    uint64_t folded_members = 0;
    if (live_roots < num_nodes) {
      std::fill(member_pos.begin(), member_pos.end(), 0);
      for (uint64_t i = 0; i < num_nodes; ++i) ++member_pos[root_of[i]];
      for (uint64_t r = 1; r < num_nodes; ++r) {
        member_pos[r] += member_pos[r - 1];
      }
      member_pos[num_nodes] = num_nodes;
      for (uint64_t i = num_nodes; i-- > 0;) {
        members[--member_pos[root_of[i]]] = static_cast<NodeId>(i);
      }
      for (uint64_t r = 0; r < num_nodes; ++r) {
        const uint64_t begin = member_pos[r], end = member_pos[r + 1];
        if (end - begin < 2) continue;
        first_unit[r] = static_cast<int64_t>(units.size());
        for (uint64_t b = begin; b < end; b += kFoldUnitMembers) {
          units.push_back({b, std::min(end, b + kFoldUnitMembers)});
        }
        folded_members += end - begin;
      }
    }
    accumulators.resize(units.size() * round_bytes);
    auto fold_unit = [&](size_t u) {
      uint8_t* acc = accumulators.data() + u * round_bytes;
      const FoldUnit& unit = units[u];
      std::memcpy(acc, node_round(members[unit.begin]), round_bytes);
      for (uint64_t m = unit.begin + 1; m < unit.end; ++m) {
        XorBytes(acc, node_round(members[m]), round_bytes);
      }
    };
    if (pool != nullptr && folded_members >= kMinParallelFoldMembers) {
      pool->Run(units.size(), fold_unit);
    } else {
      for (size_t u = 0; u < units.size(); ++u) fold_unit(u);
    }

    // Phase 2: sample one candidate cut edge per live component, in
    // parallel over contiguous node-id blocks — a singleton straight
    // from its record, a merged component from its first accumulator
    // once the others are XORed in. Per-block result slots keep the
    // gathered candidate order equal to the sequential ascending-id
    // order regardless of which thread ran which block.
    auto sample_block = [&](size_t b) {
      SampleBlock& out = blocks[b];
      out.candidates.clear();
      out.any_fail = false;
      const uint64_t begin = b * kSampleBlockNodes;
      const uint64_t end = std::min(begin + kSampleBlockNodes, num_nodes);
      for (uint64_t i = begin; i < end; ++i) {
        if (root_of[i] != i) continue;  // Only component representatives.
        const uint8_t* round_record;
        if (first_unit[i] < 0) {
          round_record = node_round(i);
        } else {
          const uint64_t size = member_pos[i + 1] - member_pos[i];
          const size_t first = static_cast<size_t>(first_unit[i]);
          const size_t count = (size + kFoldUnitMembers - 1) /
                               kFoldUnitMembers;
          uint8_t* acc = accumulators.data() + first * round_bytes;
          for (size_t u = first + 1; u < first + count; ++u) {
            XorBytes(acc, accumulators.data() + u * round_bytes,
                     round_bytes);
          }
          round_record = acc;
        }
        const SketchSample sample = layout.QueryRound(round_record, round);
        switch (sample.kind) {
          case SampleKind::kGood:
            out.candidates.push_back(IndexToEdge(sample.index, num_nodes));
            break;
          case SampleKind::kZero:
            break;  // Empty cut: this component is finished.
          case SampleKind::kFail:
            out.any_fail = true;
            break;
        }
      }
    };
    if (pool != nullptr && live_roots >= kMinParallelSampleRoots) {
      pool->Run(num_blocks, sample_block);
    } else {
      for (size_t b = 0; b < num_blocks; ++b) sample_block(b);
    }

    // Phase 3 (sequential): drive the DSU over the candidates in
    // ascending-representative order, recording forest edges. The merge
    // structure this induces is identical for every thread count.
    bool any_fail = false;
    bool found_edge = false;
    for (const SampleBlock& block : blocks) {
      any_fail |= block.any_fail;
      for (const Edge& e : block.candidates) {
        const size_t ra = dsu.Find(e.u);
        const size_t rb = dsu.Find(e.v);
        if (ra == rb) continue;  // Already merged transitively this round.
        GZ_CHECK(dsu.Union(ra, rb));
        result.spanning_forest.push_back(e);
        found_edge = true;
      }
    }
    if (!found_edge && !any_fail) complete = true;  // All cuts empty.
  }

  result.failed = !complete;
  result.num_components = dsu.num_sets();
  result.component_of.resize(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    result.component_of[i] = static_cast<NodeId>(dsu.Find(i));
  }
  return result;
}

Status WriteSpanningForestStream(const ConnectivityResult& result,
                                 uint64_t num_nodes,
                                 const std::string& path) {
  StreamWriter writer;
  Status s = writer.Open(path, num_nodes);
  if (!s.ok()) return s;
  for (const Edge& e : result.spanning_forest) {
    s = writer.Append({e, UpdateType::kInsert});
    if (!s.ok()) return s;
  }
  return writer.Close();
}

std::vector<std::vector<NodeId>> ComponentsFromLabels(
    const std::vector<NodeId>& component_of) {
  std::vector<std::vector<NodeId>> components;
  std::vector<int64_t> slot(component_of.size(), -1);
  for (NodeId i = 0; i < component_of.size(); ++i) {
    const NodeId root = component_of[i];
    if (slot[root] < 0) {
      slot[root] = static_cast<int64_t>(components.size());
      components.emplace_back();
    }
    components[slot[root]].push_back(i);
  }
  return components;
}

}  // namespace gz
