// Multi-process sharded ingestion: real gz_shard worker processes fed
// over sockets, queried via serialized-snapshot aggregation, with fault
// injection (SIGKILL mid-stream, restart from checkpoint, replay) that
// must be invisible in the final result.
//
// Every drill runs over all three transports: thread (ShardServer
// threads over socketpairs), local (fork/exec children over
// socketpairs) and loopback TCP (real `gz_shard --listen` processes
// dialed by endpoint, with an auth secret) — the transport must be
// invisible in every result too. A thread "SIGKILL" is a server
// shutdown + join and a TCP one a connection abort: each discards the
// shard's instance, the same state loss recovered the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/graph_zeppelin.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_transport.h"
#include "stream/erdos_renyi_generator.h"
#include "tests/shard_substrate.h"
#include "util/status.h"

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

class ShardClusterTest : public ::testing::TestWithParam<Substrate> {
 protected:
  SubstrateShards shards_{GetParam()};
};

// A long toggle stream over a fixed edge set: `reps` passes of inserts.
// Sketch updates are XOR toggles, so an odd rep count leaves exactly
// the base graph; this scales update volume without changing the
// answer.
std::vector<GraphUpdate> ToggleStream(const EdgeList& edges, int reps) {
  std::vector<GraphUpdate> updates;
  updates.reserve(edges.size() * reps);
  for (int r = 0; r < reps; ++r) {
    for (const Edge& e : edges) {
      updates.push_back({e, UpdateType::kInsert});
    }
  }
  return updates;
}

// Ground truth: one in-process GraphZeppelin ingesting the same stream.
GraphSnapshot SingleProcessSnapshot(const GraphZeppelinConfig& base,
                                    const std::vector<GraphUpdate>& updates) {
  GraphZeppelin single(base);
  GZ_CHECK_OK(single.Init());
  single.Update(updates.data(), updates.size());
  return single.Snapshot();
}

TEST_P(ShardClusterTest, MillionUpdatesAcrossThreeProcessesMatchBitwise) {
  // Acceptance bar: >= 1M updates across >= 3 shard processes, queried
  // via serialized-snapshot aggregation, bitwise-identical to one
  // in-process instance ingesting the identical stream.
  const uint64_t n = 512;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.02;
  ep.seed = 11;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  ASSERT_GT(edges.size(), 1000u);
  const int reps =
      static_cast<int>(1'000'000 / edges.size()) | 1;  // Odd: graph stays.
  const std::vector<GraphUpdate> updates = ToggleStream(edges, reps);
  ASSERT_GE(updates.size(), 1'000'000u);

  const GraphZeppelinConfig base = BaseConfig(n, 77);
  ShardCluster cluster(base, 3, shards_.Place(3));
  ASSERT_TRUE(cluster.Start().ok());
  // Feed in bursts, as a stream driver would.
  const size_t burst = 100'000;
  for (size_t off = 0; off < updates.size(); off += burst) {
    const size_t count = std::min(burst, updates.size() - off);
    ASSERT_TRUE(cluster.Update(updates.data() + off, count).ok());
  }
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());

  const GraphSnapshot expect = SingleProcessSnapshot(base, updates);
  EXPECT_TRUE(folded.value() == expect);

  const ConnectivityResult got = Connectivity(std::move(folded).value());
  const ConnectivityResult want = Connectivity(expect);
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.component_of, want.component_of);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, KillRestartFromCheckpointReplaysToBitwiseIdentical) {
  // The fault-injection drill: SIGKILL a shard mid-stream, restart it
  // from its last checkpoint, replay the coordinator's unacked batches,
  // and the final connectivity result must be bitwise-identical to a
  // run that never crashed.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 21;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 5);
  const size_t third = updates.size() / 3;

  const GraphZeppelinConfig base = BaseConfig(n, 91);
  ShardCluster cluster(base, 3, shards_.Place(3));
  ASSERT_TRUE(cluster.Start().ok());

  // Phase 1: first third, then checkpoint every shard.
  ASSERT_TRUE(cluster.Update(updates.data(), third).ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());
  EXPECT_EQ(cluster.unacked_updates(1), 0u);

  // Phase 2: second third, then murder shard 1 mid-stream.
  ASSERT_TRUE(cluster.Update(updates.data() + third, third).ok());
  cluster.KillShard(1);
  std::vector<bool> alive = cluster.HealthCheck();
  EXPECT_TRUE(alive[0]);
  EXPECT_FALSE(alive[1]);
  EXPECT_TRUE(alive[2]);

  // Phase 3: ingestion continues while shard 1 is down — its slice
  // buffers in the coordinator's unacked log. Barriers refuse until the
  // shard is restored.
  ASSERT_TRUE(
      cluster.Update(updates.data() + 2 * third, updates.size() - 2 * third)
          .ok());
  EXPECT_GT(cluster.unacked_updates(1), 0u);
  EXPECT_EQ(cluster.Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(cluster.Snapshot().ok());

  // Restart: restore the checkpoint, replay everything since.
  ASSERT_TRUE(cluster.RestartShard(1).ok());
  alive = cluster.HealthCheck();
  EXPECT_TRUE(alive[1]);

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());

  const GraphSnapshot expect = SingleProcessSnapshot(base, updates);
  EXPECT_TRUE(folded.value() == expect);
  const ConnectivityResult got = Connectivity(std::move(folded).value());
  const ConnectivityResult want = Connectivity(expect);
  ASSERT_FALSE(got.failed);
  ASSERT_FALSE(want.failed);
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.component_of, want.component_of);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, KillBeforeAnyCheckpointReplaysFromScratch) {
  // No checkpoint yet: the unacked log covers the whole stream, so a
  // restart rebuilds the shard from zero.
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.08;
  ep.seed = 31;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 1);

  const GraphZeppelinConfig base = BaseConfig(n, 17);
  ShardCluster cluster(base, 3, shards_.Place(3));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size() / 2).ok());
  cluster.KillShard(2);
  ASSERT_TRUE(cluster
                  .Update(updates.data() + updates.size() / 2,
                          updates.size() - updates.size() / 2)
                  .ok());
  ASSERT_TRUE(cluster.RestartShard(2).ok());

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  const GraphSnapshot expect = SingleProcessSnapshot(base, updates);
  EXPECT_TRUE(folded.value() == expect);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, RepeatedKillsOfDifferentShards) {
  // Every shard dies at least once; checkpoints interleave with kills.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.06;
  ep.seed = 41;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const size_t chunk = updates.size() / 4;

  const GraphZeppelinConfig base = BaseConfig(n, 53);
  ShardCluster cluster(base, 3, shards_.Place(3));
  ASSERT_TRUE(cluster.Start().ok());

  ASSERT_TRUE(cluster.Update(updates.data(), chunk).ok());
  cluster.KillShard(0);
  {
    const Status restarted = cluster.RestartShard(0);
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
  }

  ASSERT_TRUE(cluster.Update(updates.data() + chunk, chunk).ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());
  cluster.KillShard(1);
  ASSERT_TRUE(cluster.Update(updates.data() + 2 * chunk, chunk).ok());
  ASSERT_TRUE(cluster.RestartShard(1).ok());

  cluster.KillShard(2);
  ASSERT_TRUE(cluster
                  .Update(updates.data() + 3 * chunk,
                          updates.size() - 3 * chunk)
                  .ok());
  ASSERT_TRUE(cluster.RestartShard(2).ok());

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  const GraphSnapshot expect = SingleProcessSnapshot(base, updates);
  EXPECT_TRUE(folded.value() == expect);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, AutoCheckpointBoundsTheUnackedLogs) {
  // With a checkpoint interval set, ingestion alone must truncate the
  // durability logs — coordinator memory is bounded by the interval,
  // not the stream length.
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 61;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 9);

  const GraphZeppelinConfig base = BaseConfig(n, 23);
  ShardClusterOptions options;
  options.checkpoint_interval_updates = 256;
  ShardCluster cluster(base, 3, shards_.Place(3, options));
  ASSERT_TRUE(cluster.Start().ok());
  for (size_t off = 0; off < updates.size(); off += 100) {
    const size_t count = std::min<size_t>(100, updates.size() - off);
    ASSERT_TRUE(cluster.Update(updates.data() + off, count).ok());
  }
  // Every log was truncated along the way, never explicitly.
  for (int s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_LT(cluster.unacked_updates(s), updates.size() / 2);
  }
  // Auto-checkpoints are real checkpoints: kill + restart recovers.
  cluster.KillShard(0);
  {
    const Status restarted = cluster.RestartShard(0);
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
  }
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, UnwritableCheckpointDirFailsWithoutFencingShards) {
  // An application-level checkpoint failure (every shard replies
  // kError in sync) must surface as an error WITHOUT marking healthy
  // shards down or leaving replies queued: the very next barrier and
  // snapshot still work and are correct.
  const uint64_t n = 64;
  GraphZeppelinConfig base = BaseConfig(n, 67);
  ShardClusterOptions options;
  options.checkpoint_dir = "/nonexistent-checkpoint-dir";
  ShardCluster cluster(base, 3, shards_.Place(3, options));
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u + 1 < 40; ++u) {
    updates.push_back({Edge(u, u + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());

  EXPECT_EQ(cluster.Checkpoint().code(), StatusCode::kIoError);
  for (int s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_FALSE(cluster.shard_down(s)) << "shard " << s;
    EXPECT_GT(cluster.unacked_updates(s), 0u);  // Nothing truncated.
  }
  ASSERT_TRUE(cluster.Flush().ok());  // Reply stream still 1:1.
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, StatsReportPerShardStreamPositions) {
  const GraphZeppelinConfig base = BaseConfig(64, 3);
  ShardCluster cluster(base, 3, shards_.Place(3));
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u + 1 < 40; ++u) {
    updates.push_back({Edge(u, u + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(cluster.Flush().ok());
  uint64_t total = 0;
  for (int s = 0; s < cluster.num_shards(); ++s) {
    Result<ShardStats> stats = cluster.Stats(s);
    ASSERT_TRUE(stats.ok());
    total += stats.value().num_updates;
    EXPECT_GT(stats.value().ram_bytes, 0u);
  }
  EXPECT_EQ(total, updates.size());
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, SameSeedClustersInOneProcessKeepTheirCheckpoints) {
  // Two same-seed clusters in one process, one checkpoint_dir: each
  // checkpoint file must stay its own cluster's. Destroying one cluster
  // (which unlinks its checkpoints) must leave the other's restorable.
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 41;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const GraphZeppelinConfig base = BaseConfig(n, 43);
  ShardClusterOptions options;
  options.checkpoint_dir = ::testing::TempDir();

  ShardCluster survivor(base, 2, shards_.Place(2, options));
  ASSERT_TRUE(survivor.Start().ok());
  ASSERT_TRUE(survivor.Update(updates.data(), updates.size()).ok());
  ASSERT_TRUE(survivor.Checkpoint().ok());
  {
    SubstrateShards other_shards(GetParam());
    ShardCluster doomed(base, 2, other_shards.Place(2, options));
    ASSERT_TRUE(doomed.Start().ok());
    // A different stream, so a clobbered checkpoint cannot pass.
    ASSERT_TRUE(doomed.Update(updates.data(), updates.size() / 2).ok());
    ASSERT_TRUE(doomed.Checkpoint().ok());
  }  // Removes its own checkpoints.

  for (const int shard : {0, 1}) {
    EXPECT_EQ(survivor.unacked_updates(shard), 0u);
    survivor.KillShard(shard);
    const Status s = survivor.RestartShard(shard);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  Result<GraphSnapshot> folded = survivor.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(survivor.Shutdown().ok());
}

TEST_P(ShardClusterTest, SnapshotBitwiseThroughSplitRemoveAndReplicaRestart) {
  // Snapshot() folds count-free range reads and takes its update count
  // from the coordinator's watermarks. Through a live split, a replica
  // kill + restart and a live removal, it must stay bitwise equal —
  // update count included — to one instance fed the same prefix.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.08;
  ep.seed = 57;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const GraphZeppelinConfig base = BaseConfig(n, 59);
  ShardClusterOptions options;
  options.replication_factor = 2;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 3, shards_.Place(3, options));
  ASSERT_TRUE(cluster.Start().ok());

  size_t fed = 0;
  const auto feed = [&](size_t count) {
    count = std::min(count, updates.size() - fed);
    ASSERT_TRUE(cluster.Update(updates.data() + fed, count).ok());
    fed += count;
  };
  const auto expect_bitwise = [&](const char* step) {
    Result<GraphSnapshot> folded = cluster.Snapshot();
    ASSERT_TRUE(folded.ok()) << step << ": " << folded.status().ToString();
    const std::vector<GraphUpdate> prefix(updates.begin(),
                                          updates.begin() + fed);
    EXPECT_EQ(folded.value().num_updates(), fed) << step;
    EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, prefix))
        << step;
  };
  const size_t quarter = updates.size() / 4;

  feed(quarter);
  expect_bitwise("first quarter");

  const std::string grow = shards_.Grow() + "," + shards_.Grow();
  ASSERT_TRUE(cluster.BeginSplitShard(0, grow).ok());
  while (cluster.migration_active()) {
    feed(32);
    ASSERT_TRUE(cluster.PumpMigration().ok());
    expect_bitwise("mid-split");
  }
  expect_bitwise("after split");

  ASSERT_TRUE(cluster.Checkpoint().ok());
  feed(quarter);
  cluster.KillReplica(1, 1);
  feed(quarter);
  expect_bitwise("replica down");  // Folded from the live replica.
  ASSERT_TRUE(cluster.RestartReplica(1, 1).ok());
  cluster.KillReplica(1, 0);  // The restarted replica alone serves.
  expect_bitwise("after replica restart");
  ASSERT_TRUE(cluster.RestartReplica(1, 0).ok());

  ASSERT_TRUE(cluster.BeginRemoveShard(2).ok());
  while (cluster.migration_active()) {
    feed(32);
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  expect_bitwise("after remove");
  feed(updates.size());
  ASSERT_EQ(fed, updates.size());
  expect_bitwise("stream done");
  ASSERT_TRUE(cluster.Shutdown().ok());
}

// ---- Elastic resharding ---------------------------------------------------

TEST_P(ShardClusterTest, RemoveShardUnderLoadMatchesBitwise) {
  // Updates must keep flowing between every migration step — zero
  // stream pause — and the final fold must be bitwise-identical to a
  // single instance that never sharded at all.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 71;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 5);

  const GraphZeppelinConfig base = BaseConfig(n, 111);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;  // Several pump steps.
  ShardCluster cluster(base, 3, shards_.Place(3, options));
  ASSERT_TRUE(cluster.Start().ok());

  const size_t burst = updates.size() / 24 + 1;
  size_t fed = 0;
  auto feed_burst = [&] {
    if (fed >= updates.size()) return false;
    const size_t count = std::min(burst, updates.size() - fed);
    EXPECT_TRUE(cluster.Update(updates.data() + fed, count).ok());
    fed += count;
    return true;
  };
  for (int i = 0; i < 4; ++i) feed_burst();

  ASSERT_TRUE(cluster.BeginRemoveShard(1).ok());
  size_t bursts_during_migration = 0;
  while (cluster.migration_active()) {
    if (feed_burst()) ++bursts_during_migration;
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  EXPECT_GT(bursts_during_migration, 2u);  // The stream never paused.
  EXPECT_TRUE(cluster.shard_removed(1));
  EXPECT_EQ(cluster.num_active_shards(), 2);
  while (feed_burst()) {
  }

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, AddAndSplitShardsUnderLoadMatchBitwise) {
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.06;
  ep.seed = 81;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);

  const GraphZeppelinConfig base = BaseConfig(n, 131);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 1, shards_.Place(1, options));
  ASSERT_TRUE(cluster.Start().ok());

  const size_t third = updates.size() / 3;
  ASSERT_TRUE(cluster.Update(updates.data(), third).ok());

  // 1 -> 2 by AddShard: instant (an empty shard is the XOR identity).
  Result<int> added = cluster.AddShard(SubstrateEndpoint(GetParam()));
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value(), 1);
  ASSERT_TRUE(cluster.Update(updates.data() + third, third).ok());

  // 2 -> 3 by splitting shard 0, feeding between pump steps.
  Result<int> split = cluster.BeginSplitShard(0, SubstrateEndpoint(GetParam()));
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(split.value(), 2);
  size_t fed = 2 * third;
  while (cluster.migration_active()) {
    if (fed < updates.size()) {
      const size_t count = std::min(third / 4 + 1, updates.size() - fed);
      ASSERT_TRUE(cluster.Update(updates.data() + fed, count).ok());
      fed += count;
    }
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  while (fed < updates.size()) {
    const size_t count = std::min(third / 4 + 1, updates.size() - fed);
    ASSERT_TRUE(cluster.Update(updates.data() + fed, count).ok());
    fed += count;
  }
  EXPECT_EQ(cluster.num_active_shards(), 3);
  // The split moved real state: the new shard is not empty.
  Result<ShardStats> stats = cluster.Stats(2);
  ASSERT_TRUE(stats.ok());

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, KillSourceMidMigrationRestartReissueConverges) {
  // The drill: SIGKILL the migration source after the epoch bump and
  // mid-chunk-stream, before any checkpoint ack covers the migration
  // deltas. Restart + unacked replay + pending-delta replay + the
  // re-issued remaining chunks must converge to the same bytes.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 91;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 5);
  const size_t quarter = updates.size() / 4;

  const GraphZeppelinConfig base = BaseConfig(n, 151);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 3, shards_.Place(3, options));
  ASSERT_TRUE(cluster.Start().ok());

  ASSERT_TRUE(cluster.Update(updates.data(), quarter).ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());
  ASSERT_TRUE(cluster.Update(updates.data() + quarter, quarter).ok());

  ASSERT_TRUE(cluster.BeginRemoveShard(1).ok());  // Epoch bump.
  ASSERT_TRUE(cluster.PumpMigration().ok());      // A couple of chunks...
  ASSERT_TRUE(cluster.PumpMigration().ok());
  cluster.KillShard(1);  // ...then murder the source.
  EXPECT_GT(cluster.pending_delta_count(1), 0u);  // Cancels in flight.

  // The stream keeps flowing while the source is down.
  ASSERT_TRUE(cluster.Update(updates.data() + 2 * quarter, quarter).ok());
  // Pumping against a dead source refuses instead of corrupting.
  EXPECT_EQ(cluster.PumpMigration().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(cluster.RestartShard(1).ok());
  while (cluster.migration_active()) {
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  ASSERT_TRUE(cluster
                  .Update(updates.data() + 3 * quarter,
                          updates.size() - 3 * quarter)
                  .ok());

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, KillTargetMidMigrationRestartConverges) {
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 101;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const size_t third = updates.size() / 3;

  const GraphZeppelinConfig base = BaseConfig(n, 171);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 3, shards_.Place(3, options));
  ASSERT_TRUE(cluster.Start().ok());

  ASSERT_TRUE(cluster.Update(updates.data(), third).ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());

  ASSERT_TRUE(cluster.BeginRemoveShard(2).ok());
  ASSERT_TRUE(cluster.PumpMigration().ok());
  const int target = cluster.migration_target();
  cluster.KillShard(target);  // Installed chunks not yet checkpointed.
  EXPECT_GT(cluster.pending_delta_count(target), 0u);

  ASSERT_TRUE(cluster.Update(updates.data() + third, third).ok());
  ASSERT_TRUE(cluster.RestartShard(target).ok());
  while (cluster.migration_active()) {
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  ASSERT_TRUE(cluster
                  .Update(updates.data() + 2 * third,
                          updates.size() - 2 * third)
                  .ok());

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, TargetDiesUndetectedMidSplitStillConverges) {
  // The nastiest chunk-failure interleaving: the migration target dies
  // WITHOUT the coordinator noticing (no KillShard fencing), so the
  // next pump extracts fine and only the install send fails. The
  // source's XOR-cancel for that chunk must still be delivered (or its
  // shard fenced) — if it were silently stranded, later deltas would
  // close the sequence gap and the chunk would cancel out of the
  // global fold for good.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 107;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const size_t half = updates.size() / 2;

  const GraphZeppelinConfig base = BaseConfig(n, 211);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 2, shards_.Place(2, options));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());

  Result<int> split = cluster.BeginSplitShard(0, SubstrateEndpoint(GetParam()));
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  ASSERT_TRUE(cluster.PumpMigration().ok());
  cluster.KillShard(split.value(), /*observed=*/false);
  // This pump extracts from the healthy source, then fails to install
  // on the dead target; the coordinator must fence the target itself.
  EXPECT_FALSE(cluster.PumpMigration().ok());
  EXPECT_TRUE(cluster.shard_down(split.value()));

  ASSERT_TRUE(cluster.RestartShard(split.value()).ok());
  while (cluster.migration_active()) {
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  ASSERT_TRUE(cluster.Update(updates.data() + half, updates.size() - half)
                  .ok());
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, CheckpointMidMigrationCoversDeltasExactly) {
  // A checkpoint between pump steps truncates the pending-delta logs;
  // a kill + restart AFTER it must replay only what the checkpoint
  // does not cover — the delta-sequence reconciliation in action.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.07;
  ep.seed = 113;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const size_t half = updates.size() / 2;

  const GraphZeppelinConfig base = BaseConfig(n, 191);
  ShardClusterOptions options;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 2, shards_.Place(2, options));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());

  ASSERT_TRUE(cluster.BeginRemoveShard(0).ok());
  ASSERT_TRUE(cluster.PumpMigration().ok());
  ASSERT_TRUE(cluster.PumpMigration().ok());
  ASSERT_TRUE(cluster.Checkpoint().ok());  // Covers the chunks so far.
  EXPECT_EQ(cluster.pending_delta_count(0), 0u);
  EXPECT_EQ(cluster.pending_delta_count(1), 0u);

  ASSERT_TRUE(cluster.PumpMigration().ok());  // One uncovered chunk...
  cluster.KillShard(0);
  ASSERT_TRUE(cluster.Update(updates.data() + half, updates.size() - half)
                  .ok());
  ASSERT_TRUE(cluster.RestartShard(0).ok());  // ...replayed here.
  while (cluster.migration_active()) {
    ASSERT_TRUE(cluster.PumpMigration().ok());
  }
  EXPECT_TRUE(cluster.shard_removed(0));

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, DiskBackedShardProcessesWork) {
  // Disk-backed gutter tree + on-disk sketch store inside each worker
  // process; per-process pids keep backing files separate.
  GraphZeppelinConfig base = BaseConfig(64, 7);
  base.storage = GraphZeppelinConfig::Storage::kDisk;
  base.buffering = GraphZeppelinConfig::Buffering::kGutterTree;
  ShardCluster cluster(base, 2, shards_.Place(2));
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u + 1 < 32; ++u) {
    updates.push_back({Edge(u, u + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  const ConnectivityResult r = Connectivity(std::move(folded).value());
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 64u - 32u + 1u);
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, AddShardOnTcpEndpointGrowsAcrossMachines) {
  // Elastic growth onto "another machine": AddShard with a tcp://
  // endpoint attaches a listener-mode shard to a running cluster (a
  // mixed local+tcp cluster when the base transport is local). The
  // result must stay bitwise-identical to an unsharded instance.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.06;
  ep.seed = 121;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);
  const size_t half = updates.size() / 2;

  const GraphZeppelinConfig base = BaseConfig(n, 231);
  ShardClusterOptions options = shards_.Place(2);
  // TCP endpoints need the handshake secret even in local base mode.
  options.auth_secret = shards_.secret();
  ShardCluster cluster(base, 2, options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), half).ok());

  Result<int> added = cluster.AddShard(shards_.SpawnListener());
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ASSERT_TRUE(cluster.Update(updates.data() + half, updates.size() - half)
                  .ok());
  // The tcp shard really participates: it owns slots and took updates.
  Result<ShardStats> stats = cluster.Stats(added.value());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats.value().num_updates, 0u);

  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));

  // And it can be drained back out (remove pumps its state to
  // survivors over the same wire).
  ASSERT_TRUE(cluster.RemoveShard(added.value()).ok());
  Result<GraphSnapshot> after = cluster.Snapshot();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

// ---- Replication ----------------------------------------------------------

TEST_P(ShardClusterTest, ReplicaKillDrillRepairsWithZeroStreamPause) {
  // The replication acceptance drill: at R=2, SIGKILL one replica of a
  // shard mid-stream. Ingestion and queries continue with ZERO pause
  // (the surviving replica carries the shard), the killed replica
  // rejoins via reconnect + anti-entropy — no checkpoint restore, no
  // replay — and afterwards it can serve the shard ALONE, bitwise
  // identical to a single unsharded instance.
  const uint64_t n = 128;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.05;
  ep.seed = 221;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 5);
  const size_t third = updates.size() / 3;

  const GraphZeppelinConfig base = BaseConfig(n, 241);
  ShardClusterOptions options;
  options.replication_factor = 2;
  options.migrate_nodes_per_chunk = 16;
  // 3 shards x 2 replicas (on TCP, one listener per replica).
  ShardCluster cluster(base, 3, shards_.Place(3, options));
  ASSERT_TRUE(cluster.Start().ok());
  EXPECT_EQ(cluster.replication(), 2);

  ASSERT_TRUE(cluster.Update(updates.data(), third).ok());
  cluster.KillReplica(1, 1);  // Murder one replica mid-stream.
  EXPECT_TRUE(cluster.replica_down(1, 1));
  EXPECT_FALSE(cluster.replica_down(1, 0));

  // Zero stream pause: ingestion keeps flowing...
  ASSERT_TRUE(cluster.Update(updates.data() + third, third).ok());
  // ...and so do queries — the fold fails over to the live replica.
  {
    Result<GraphSnapshot> folded = cluster.Snapshot();
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    const std::vector<GraphUpdate> prefix(updates.begin(),
                                          updates.begin() + 2 * third);
    EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, prefix));
  }

  // Rejoin: reconnect + reconcile. The replica comes back empty and
  // anti-entropy transfers exactly the reference's content.
  uint64_t repaired = 0;
  ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
  EXPECT_GT(repaired, 0u);
  EXPECT_FALSE(cluster.replica_down(1, 1));
  for (const bool alive : cluster.HealthCheck()) EXPECT_TRUE(alive);

  // Finish the stream, then kill the OTHER replica: the repaired one
  // now carries the shard alone, and the fold must still be bitwise
  // identical to the unsharded ground truth.
  ASSERT_TRUE(cluster
                  .Update(updates.data() + 2 * third,
                          updates.size() - 2 * third)
                  .ok());
  cluster.KillReplica(1, 0);
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));

  // And a second reconcile rejoins replica 0 from the repaired one.
  ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
  EXPECT_FALSE(cluster.replica_down(1, 0));
  ASSERT_TRUE(cluster.Flush().ok());  // All-replica barrier works again.
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, PeriodicReconcileRejoinsAKilledReplica) {
  // The cadence knob: with reconcile_interval_updates set, ingestion
  // alone rejoins a dead replica — no manual Reconcile() call.
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.08;
  ep.seed = 231;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 5);

  const GraphZeppelinConfig base = BaseConfig(n, 251);
  ShardClusterOptions options;
  options.replication_factor = 2;
  options.reconcile_interval_updates = 200;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 2, shards_.Place(2, options));
  ASSERT_TRUE(cluster.Start().ok());

  const size_t quarter = updates.size() / 4;
  ASSERT_TRUE(cluster.Update(updates.data(), quarter).ok());
  cluster.KillReplica(0, 1);
  // Feed well past the interval in driver-sized bursts; a periodic
  // pass fires inside Update() and repairs the replica along the way.
  size_t fed = quarter;
  while (fed < updates.size()) {
    const size_t count = std::min<size_t>(100, updates.size() - fed);
    ASSERT_TRUE(cluster.Update(updates.data() + fed, count).ok());
    fed += count;
  }
  EXPECT_FALSE(cluster.replica_down(0, 1))
      << "periodic reconcile never rejoined the replica";

  // The rejoined replica serves the shard alone, bitwise.
  cluster.KillReplica(0, 0);
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, ReconcileDetectsAndRepairsInjectedDivergence) {
  // Silent corruption drill: fold a rogue delta into one replica
  // BEHIND the coordinator's books. Folds from the healthy replica are
  // unaffected; Reconcile() must detect the divergence (the corrupted
  // copy cannot be a reference — its position disagrees with the
  // books), repair it chunk-by-chunk, and converge: a second pass
  // finds nothing, and the repaired replica serves the shard alone.
  const uint64_t n = 96;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.06;
  ep.seed = 241;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const std::vector<GraphUpdate> updates = ToggleStream(edges, 3);

  const GraphZeppelinConfig base = BaseConfig(n, 261);
  ShardClusterOptions options;
  options.replication_factor = 2;
  options.migrate_nodes_per_chunk = 16;
  ShardCluster cluster(base, 2, shards_.Place(2, options));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());

  // A rogue same-geometry delta nobody logged.
  GraphZeppelin rogue(base);
  ASSERT_TRUE(rogue.Init().ok());
  for (NodeId u = 0; u + 1 < 10; ++u) {
    rogue.Update({Edge(u, u + 1), UpdateType::kInsert});
  }
  const GraphSnapshot rogue_snap = rogue.Snapshot();
  const std::vector<uint8_t> delta = rogue_snap.ExtractNodeRange(0, n);
  ASSERT_TRUE(cluster.CorruptReplicaForTest(0, 1, delta).ok());

  // The healthy replica still answers for the shard.
  const GraphSnapshot expect = SingleProcessSnapshot(base, updates);
  {
    Result<GraphSnapshot> folded = cluster.Snapshot();
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    EXPECT_TRUE(folded.value() == expect);
  }

  uint64_t repaired = 0;
  ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
  EXPECT_GT(repaired, 0u) << "the injected divergence went undetected";
  ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
  EXPECT_EQ(repaired, 0u) << "a repaired cluster must reconcile clean";

  cluster.KillReplica(0, 0);
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  EXPECT_TRUE(folded.value() == expect)
      << "the repaired replica's content still diverges";
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST_P(ShardClusterTest, ReconcileIsANoOpOnAHealthyUnreplicatedCluster) {
  // R=1 parity: Reconcile() exists but has nothing to compare a lone
  // replica against — a healthy cluster reconciles clean with zero
  // repairs and an unchanged fold.
  const GraphZeppelinConfig base = BaseConfig(64, 271);
  ShardCluster cluster(base, 2, shards_.Place(2));
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u + 1 < 40; ++u) {
    updates.push_back({Edge(u, u + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  uint64_t repaired = 7;
  ASSERT_TRUE(cluster.Reconcile(&repaired).ok());
  EXPECT_EQ(repaired, 0u);
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE(folded.value() == SingleProcessSnapshot(base, updates));
  ASSERT_TRUE(cluster.Shutdown().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, ShardClusterTest,
    ::testing::Values(Substrate::kThread, Substrate::kProcess,
                      Substrate::kTcp),
    [](const ::testing::TestParamInfo<Substrate>& info) {
      return SubstrateName(info.param);
    });

TEST(ShardClusterTcpTest, WrongAuthSecretFailsStartWithoutCrash) {
  // A coordinator holding the wrong secret must be told so at Start()
  // — a clean FailedPrecondition, no crash on either side, and the
  // listener survives to serve a correctly keyed coordinator next.
  ListenerShard listener;
  ASSERT_TRUE(listener
                  .Start(DefaultShardBinary(), ::testing::TempDir(),
                         ::testing::TempDir() + "/gz_wrong_secret.log",
                         "right-secret")
                  .ok());
  const GraphZeppelinConfig base = BaseConfig(64, 3);
  {
    ShardClusterOptions options;
    options.shard_endpoints = {listener.endpoint()};
    options.auth_secret = "wrong-secret";
    ShardCluster cluster(base, 1, options);
    const Status s = cluster.Start();
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(s.message().find("authentication"), std::string::npos);
  }
  ASSERT_TRUE(listener.Running());
  ShardClusterOptions options;
  options.shard_endpoints = {listener.endpoint()};
  options.auth_secret = "right-secret";
  ShardCluster cluster(base, 1, options);
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<GraphUpdate> updates;
  for (NodeId u = 0; u + 1 < 16; ++u) {
    updates.push_back({Edge(u, u + 1), UpdateType::kInsert});
  }
  ASSERT_TRUE(cluster.Update(updates.data(), updates.size()).ok());
  Result<GraphSnapshot> folded = cluster.Snapshot();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded.value().num_updates(), updates.size());
  ASSERT_TRUE(cluster.Shutdown().ok());
}

TEST(ShardClusterTcpTest, MalformedEndpointFailsStartCleanly) {
  const GraphZeppelinConfig base = BaseConfig(64, 5);
  ShardClusterOptions options;
  options.shard_endpoints = {"carrier-pigeon://coop:7"};
  ShardCluster cluster(base, 1, options);
  const Status s = cluster.Start();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ShardClusterConfigTest, OutOfRangeReplicationFactorFailsStartCleanly) {
  const GraphZeppelinConfig base = BaseConfig(64, 9);
  for (const int r : {0, -1, 9}) {
    ShardClusterOptions options;
    options.replication_factor = r;
    ShardCluster cluster(base, 2, options);
    const Status s = cluster.Start();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "factor " << r;
  }
}

TEST(ShardClusterConfigTest, TooManyEndpointsForTheReplicaLayoutFailStart) {
  // 2 shards x 2 replicas = 4 endpoint positions; a fifth entry has
  // nowhere to go and must be a config error, not a silent drop.
  const GraphZeppelinConfig base = BaseConfig(64, 13);
  ShardClusterOptions options;
  options.replication_factor = 2;
  options.shard_endpoints = {"local:", "local:", "local:", "local:",
                             "local:"};
  ShardCluster cluster(base, 2, options);
  const Status s = cluster.Start();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gz
