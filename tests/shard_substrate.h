// The shard substrates the sharded suites run on. A substrate is only
// an endpoint URI (distributed/shard_endpoint.h): every one is driven
// by the same ShardCluster coordinator through the same frames.
#ifndef GZ_TESTS_SHARD_SUBSTRATE_H_
#define GZ_TESTS_SHARD_SUBSTRATE_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/connectivity.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_process.h"
#include "distributed/shard_transport.h"
#include "util/check.h"

namespace gz {

// The folded whole-graph snapshot of a started cluster; a failed fold
// aborts at the cause.
inline GraphSnapshot ClusterSnapshot(ShardCluster* cluster) {
  Result<GraphSnapshot> r = cluster->Snapshot();
  GZ_CHECK_OK(r.status());
  return std::move(r).value();
}

// Boruvka over ClusterSnapshot().
inline ConnectivityResult ClusterForest(ShardCluster* cluster,
                                        int threads = 0) {
  return Connectivity(ClusterSnapshot(cluster), threads);
}

enum class Substrate {
  kThread,   // thread: — ShardServer threads in the test process.
  kProcess,  // local: — forked gz_shard processes.
  kTcp,      // tcp:// — listener-mode gz_shards dialed over loopback.
};

// Parameterized-test name suffix.
inline std::string SubstrateName(Substrate substrate) {
  switch (substrate) {
    case Substrate::kThread:
      return "Thread";
    case Substrate::kProcess:
      return "Process";
    default:
      return "Tcp";
  }
}

// The endpoint of a shard that needs no listener: a thread beside
// thread shards, a local child otherwise. An elastic child placed this
// way on kTcp makes a mixed cluster.
inline std::string SubstrateEndpoint(Substrate substrate) {
  return substrate == Substrate::kThread ? "thread:" : "local:";
}

// `options` with every replica of `num_shards` shards on a
// listener-free substrate.
inline ShardClusterOptions OnSubstrate(Substrate substrate, int num_shards,
                                       ShardClusterOptions options = {}) {
  GZ_CHECK(substrate != Substrate::kTcp);
  options.shard_endpoints.assign(
      static_cast<size_t>(num_shards) * options.replication_factor,
      SubstrateEndpoint(substrate));
  return options;
}

// Places shards on any substrate. Owns the listener-mode gz_shards a
// kTcp placement starts: declare it before the cluster that dials them.
class SubstrateShards {
 public:
  explicit SubstrateShards(Substrate substrate,
                           std::string secret = "substrate-test-secret")
      : substrate_(substrate), secret_(std::move(secret)) {}

  // `options` with every replica of `num_shards` shards on the
  // substrate; kTcp starts one listener per replica and sets the
  // handshake secret.
  ShardClusterOptions Place(int num_shards,
                            ShardClusterOptions options = {}) {
    if (substrate_ != Substrate::kTcp) {
      return OnSubstrate(substrate_, num_shards, std::move(options));
    }
    options.auth_secret = secret_;
    options.shard_endpoints.clear();
    GZ_CHECK_OK(StartListenerShards(
        DefaultShardBinary(), num_shards * options.replication_factor,
        ::testing::TempDir(), ::testing::TempDir() + "/gz_substrate_l",
        secret_, &listeners_, &options.shard_endpoints));
    return options;
  }

  // The endpoint of one more listener-mode gz_shard, on any substrate
  // (an AddShard-onto-a-new-machine drill). Harness failure aborts at
  // the cause rather than as an endpoint-parse error deep in a drill.
  std::string SpawnListener() {
    std::vector<std::string> endpoints;
    GZ_CHECK_OK(StartListenerShards(
        DefaultShardBinary(), 1, ::testing::TempDir(),
        ::testing::TempDir() + "/gz_substrate_l", secret_, &listeners_,
        &endpoints));
    return endpoints.back();
  }

  // Where an elastic op grows a shard: a fresh listener on kTcp, else
  // SubstrateEndpoint().
  std::string Grow() {
    return substrate_ == Substrate::kTcp ? SpawnListener()
                                         : SubstrateEndpoint(substrate_);
  }

  const std::string& secret() const { return secret_; }

 private:
  Substrate substrate_;
  std::string secret_;
  std::vector<std::unique_ptr<ListenerShard>> listeners_;
};

}  // namespace gz

#endif  // GZ_TESTS_SHARD_SUBSTRATE_H_
