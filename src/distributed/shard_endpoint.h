// ShardEndpoint: where a shard lives, as a first-class value. The
// endpoint alone names the shard's substrate; the Transport layer (see
// shard_transport.h) turns it into a connected socket, and one
// coordinator (ShardCluster) drives every kind through the same frames.
//
// URI grammar:
//   "thread:"             a ShardServer on a thread of the coordinator's
//                         process, over a socketpair
//   "local:"              fork/exec gz_shard over a socketpair (the
//                         default; "" means the same)
//   "tcp://host:port"     connect to a running `gz_shard --listen`
//                         (host is a name or IPv4 literal; port 1-65535)
#ifndef GZ_DISTRIBUTED_SHARD_ENDPOINT_H_
#define GZ_DISTRIBUTED_SHARD_ENDPOINT_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace gz {

struct ShardEndpoint {
  enum class Kind {
    kLocal,   // Fork/exec over a socketpair.
    kTcp,     // TCP connect to a listener-mode gz_shard.
    kThread,  // ShardServer thread over a socketpair.
  };

  Kind kind = Kind::kLocal;
  std::string host;    // kTcp only.
  uint16_t port = 0;   // kTcp only.

  static ShardEndpoint Local() { return ShardEndpoint{}; }
  static ShardEndpoint Thread() {
    ShardEndpoint e;
    e.kind = Kind::kThread;
    return e;
  }
  static ShardEndpoint Tcp(std::string host, uint16_t port) {
    ShardEndpoint e;
    e.kind = Kind::kTcp;
    e.host = std::move(host);
    e.port = port;
    return e;
  }

  // Canonical URI form ("local:", "thread:" or "tcp://host:port").
  std::string ToString() const;

  friend bool operator==(const ShardEndpoint& a, const ShardEndpoint& b) {
    return a.kind == b.kind && a.host == b.host && a.port == b.port;
  }
};

// Parses the grammar above. "" parses as local: so endpoint lists can
// leave slots unset. InvalidArgument on anything else.
Result<ShardEndpoint> ParseShardEndpoint(const std::string& uri);

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_ENDPOINT_H_
