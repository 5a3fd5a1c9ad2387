// Transport abstraction under ShardCluster: one connected, authenticated
// stream socket per shard, created from a ShardEndpoint. The cluster
// sees only this interface — where the bytes go (a ShardServer thread
// or a forked child over a socketpair, a TCP listener on another
// machine) is the transport's business, and the protocol state
// machines above never branch on it. The endpoint URI is the only
// thing that picks one (see shard_endpoint.h).
//
//   Connect()    establish the connection (thread start, fork/exec or
//                TCP connect) and run the client half of the
//                authenticated handshake. Re-callable after
//                Terminate() — that is what RestartShard does.
//   Alive()      the substrate still exists (thread serving / child
//                not reaped / connection open). Liveness of the *shard
//                logic* is the cluster's health check (PING), not ours.
//   Terminate()  hard-stop: shutdown + join for a thread shard, SIGKILL
//                + reap for a local child, connection abort for a TCP
//                shard (the listener drops its instance and returns to
//                accept). Each is the same state loss, recovered the
//                same way: Connect() + checkpoint restore + replay.
#ifndef GZ_DISTRIBUTED_SHARD_TRANSPORT_H_
#define GZ_DISTRIBUTED_SHARD_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "distributed/shard_endpoint.h"
#include "distributed/shard_protocol.h"
#include "util/status.h"

namespace gz {

class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  virtual Status Connect() = 0;
  virtual bool Alive() = 0;
  virtual void Terminate() = 0;
  virtual int fd() const = 0;
  // Human-readable target for error messages ("local:gz_shard",
  // "tcp://host:port").
  virtual std::string Describe() const = 0;

  // Sends one request and awaits its kAck reply (via RecvReply, so a
  // kError reply decodes into the shard's Status and transport
  // failures are IoError). UPDATE_BATCH is fire-and-forget: use Send*
  // directly, no reply.
  Status CallAck(ShardMessageType type, const void* payload,
                 size_t payload_bytes, ShardAck* ack);

 protected:
  ShardFrame reply_buf_;  // Reused across CallAck()s.
};

// Everything a transport needs besides the endpoint itself. The same
// secret is pinned into local children's environment (never argv —
// /proc exposes that world-readable) and proven to TCP listeners
// through the handshake, so one cluster speaks one secret.
struct ShardTransportOptions {
  std::string binary;       // gz_shard binary (local endpoints).
  std::string log_path;     // Child stderr destination (local endpoints).
  std::string auth_secret;  // Shared handshake secret ("" = open).
};

// Endpoint -> transport factory: thread: -> ThreadShardTransport,
// local: -> ShardProcess (fork/exec, see shard_process.h), tcp:// ->
// TcpShardTransport.
std::unique_ptr<ShardTransport> MakeShardTransport(
    const ShardEndpoint& endpoint, const ShardTransportOptions& options);

// ---- Child-process plumbing shared by ShardProcess and ListenerShard ------

// fork/execs `binary` with the given argv tail, stderr appended to
// `log_path` (empty = inherit), and GZ_SHARD_AUTH_SECRET pinned in the
// child's environment — never argv, which is world-readable through
// /proc/<pid>/cmdline, and always set (even empty) so an inherited
// env var can't silently override the coordinator's secret.
// `inherit_fd` (if >= 0) is left open for the child; everything
// cluster-side is CLOEXEC.
Result<pid_t> SpawnShardChild(const std::string& binary,
                              const std::vector<std::string>& args,
                              const std::string& log_path,
                              const std::string& auth_secret,
                              int inherit_fd = -1);

// waitpid bookkeeping: true while the child has neither exited nor
// been reaped (`*reaped` tracks the reap across calls).
bool ShardChildRunning(pid_t pid, bool* reaped);
// SIGKILL + blocking reap; idempotent via `*reaped`.
void KillShardChild(pid_t pid, bool* reaped);

// Attaches to a running `gz_shard --listen`. Connect() retries briefly
// while the listener finishes a previous session (its accept loop
// serves one connection at a time), sets TCP_NODELAY (the barrier RPCs
// are latency-bound), and authenticates.
class TcpShardTransport : public ShardTransport {
 public:
  // `role` is the session role the handshake declares: kWriter (the
  // default — what the coordinator is) or kReader (a serving-tier
  // session, restricted to read-only frames; see QuerySession).
  TcpShardTransport(ShardEndpoint endpoint, std::string auth_secret,
                    ShardSessionRole role = ShardSessionRole::kWriter);
  ~TcpShardTransport() override;
  TcpShardTransport(const TcpShardTransport&) = delete;
  TcpShardTransport& operator=(const TcpShardTransport&) = delete;

  Status Connect() override;
  bool Alive() override { return fd_ >= 0; }
  void Terminate() override;
  int fd() const override { return fd_; }
  std::string Describe() const override { return endpoint_.ToString(); }

 private:
  ShardEndpoint endpoint_;
  std::string auth_secret_;
  ShardSessionRole role_ = ShardSessionRole::kWriter;
  int fd_ = -1;
};

// The thread: transport. Connect() opens a socketpair and runs
// ShardServer(fd, secret).Serve() on a thread of this process — the
// server loop gz_shard --fd runs, minus the fork/exec — then
// authenticates like every other transport. Terminate() shuts the
// server's end down and joins the thread, so the shard's GraphZeppelin
// is dropped exactly as a SIGKILLed child drops it; the coordinator's
// end stays open so queued replies can be drained.
class ThreadShardTransport : public ShardTransport {
 public:
  explicit ThreadShardTransport(std::string auth_secret);
  ~ThreadShardTransport() override;
  ThreadShardTransport(const ThreadShardTransport&) = delete;
  ThreadShardTransport& operator=(const ThreadShardTransport&) = delete;

  Status Connect() override;
  // True while the server thread is serving.
  bool Alive() override { return serving_.load(); }
  void Terminate() override;
  int fd() const override { return fd_; }
  std::string Describe() const override { return "thread:"; }

 private:
  std::string auth_secret_;
  std::atomic<bool> serving_{false};
  int fd_ = -1;         // Coordinator end.
  int server_fd_ = -1;  // ShardServer end, closed once the thread joins.
  std::thread server_;  // Declared last: it reads the members above.
};

// Test/bench harness for listener-mode shards: fork/execs
// `gz_shard --listen 127.0.0.1:0` on this machine, waits for the
// kernel-assigned port (the child publishes it through --port-file),
// and exposes the tcp:// endpoint to dial. Production deployments
// start listeners themselves; this exists so loopback-TCP suites and
// benches stand up real ones.
class ListenerShard {
 public:
  ListenerShard() = default;
  ~ListenerShard();
  ListenerShard(const ListenerShard&) = delete;
  ListenerShard& operator=(const ListenerShard&) = delete;

  // `scratch_dir` hosts the transient port file; `log_path` receives
  // the listener's stderr (empty = inherit).
  Status Start(const std::string& binary, const std::string& scratch_dir,
               const std::string& log_path, const std::string& auth_secret);
  // SIGKILL + reap; idempotent. (An orderly exit happens on its own
  // when a coordinator sends kShutdown — Stop() then just reaps.)
  void Stop();
  bool Running();

  uint16_t port() const { return port_; }
  std::string endpoint() const {
    return "tcp://127.0.0.1:" + std::to_string(port_);
  }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  uint16_t port_ = 0;
};

// Fleet sugar over ListenerShard, shared by the TCP-parameterized
// suites and benches: stands up `count` listeners (logs at
// <log_prefix><i>.log when a prefix is given) and appends their
// tcp:// endpoints to *endpoints. Fails on the FIRST listener that
// cannot start, naming it — a port-0 placeholder leaking into a
// cluster config would fail far from the cause.
Status StartListenerShards(const std::string& binary, int count,
                           const std::string& scratch_dir,
                           const std::string& log_prefix,
                           const std::string& auth_secret,
                           std::vector<std::unique_ptr<ListenerShard>>* fleet,
                           std::vector<std::string>* endpoints);

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_TRANSPORT_H_
