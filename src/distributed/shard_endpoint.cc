#include "distributed/shard_endpoint.h"

namespace gz {

std::string ShardEndpoint::ToString() const {
  if (kind == Kind::kLocal) return "local:";
  if (kind == Kind::kThread) return "thread:";
  return "tcp://" + host + ":" + std::to_string(port);
}

Result<ShardEndpoint> ParseShardEndpoint(const std::string& uri) {
  if (uri.empty() || uri == "local:" || uri == "local") {
    return ShardEndpoint::Local();
  }
  if (uri == "thread:") return ShardEndpoint::Thread();
  const std::string scheme = "tcp://";
  if (uri.rfind(scheme, 0) != 0) {
    return Status::InvalidArgument(
        "shard endpoint '" + uri +
        "': expected 'local:', 'thread:' or 'tcp://host:port'");
  }
  const std::string rest = uri.substr(scheme.size());
  const size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == rest.size()) {
    return Status::InvalidArgument("shard endpoint '" + uri +
                                   "': expected tcp://host:port");
  }
  const std::string host = rest.substr(0, colon);
  const std::string port_str = rest.substr(colon + 1);
  uint64_t port = 0;
  for (const char c : port_str) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("shard endpoint '" + uri +
                                     "': port is not a number");
    }
    port = port * 10 + static_cast<uint64_t>(c - '0');
    if (port > 65535) break;
  }
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("shard endpoint '" + uri +
                                   "': port out of range");
  }
  return ShardEndpoint::Tcp(host, static_cast<uint16_t>(port));
}

}  // namespace gz
