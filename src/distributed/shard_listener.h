// ShardListener: the multi-session server behind `gz_shard --listen`.
//
// One listener owns one shard instance (ShardInstanceState) and serves
// it to many concurrent sessions: at most ONE authenticated writer —
// the coordinator, full protocol, byte-identical to the single-session
// server — plus any number of authenticated readers (bounded by
// max_sessions) issuing read-only frames (PING / STATS_EX /
// MIGRATE_EXTRACT / HEAVY_HITTERS). That asymmetry is the whole design: the
// ingest path stays a single FIFO stream (which is what makes shard
// state a pure function of its watermark), while the serving tier
// scales out by adding reader sessions.
//
// Concurrency: the accept loop runs on the caller's thread (poll on
// the listen socket plus a stop pipe); each accepted connection gets a
// session thread. The authentication handshake runs INSIDE the session
// thread, so a peer that connects and stalls pre-auth occupies one
// bounded session slot for at most the handshake deadline — it can
// never wedge the accept loop (the single-session listener's DoS
// window). Sessions over max_sessions are refused with a clean kError
// before any handshake work.
//
// Lifecycle: the writer's orderly kShutdown retires the listener —
// remaining reader sessions are shut down, everything joins, Run()
// returns Ok. A writer that drops mid-session discards the in-memory
// instance (exactly the state loss of a SIGKILLed local shard — the
// coordinator recovers it by reconnect + restore + replay) but reader
// sessions survive, observing an unconfigured shard until the writer
// returns. Reader disconnects never affect anything.
#ifndef GZ_DISTRIBUTED_SHARD_LISTENER_H_
#define GZ_DISTRIBUTED_SHARD_LISTENER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "distributed/shard_server.h"
#include "util/status.h"

namespace gz {

struct ShardListenerOptions {
  // host:port to bind; port 0 asks the kernel for a free port.
  std::string listen;
  // When non-empty, the bound port is published here (write-then-
  // rename) once listening — how harnesses discover a port-0 bind.
  std::string port_file;
  // Shared handshake secret; "" serves unauthenticated (trusted
  // networks only).
  std::string auth_secret;
  // Bound on concurrent sessions (writer + readers + any still in
  // handshake). Connections beyond it are refused with kError
  // kResourceExhausted and closed — the bound is what keeps a
  // connection flood from exhausting threads/fds.
  int max_sessions = 17;  // 1 writer + 16 readers.
  // Per-read deadline for established reader sessions: once a frame
  // starts arriving, every read must complete within this many
  // seconds. Idle time between requests is not limited.
  int reader_timeout_seconds = 30;
};

class ShardListener {
 public:
  explicit ShardListener(ShardListenerOptions options)
      : options_(std::move(options)) {}
  ~ShardListener();

  ShardListener(const ShardListener&) = delete;
  ShardListener& operator=(const ShardListener&) = delete;

  // Resolves, binds and listens on options_.listen, then publishes the
  // port file (if requested). Must be called (successfully) before
  // Run().
  Status Bind();

  // The bound port, valid after Bind(). With an explicit port this
  // echoes it; with port 0 it is the kernel's pick.
  uint16_t port() const { return port_; }

  // Serves sessions until the writer's orderly kShutdown (returns Ok)
  // or a fatal listener error. Joins every session thread before
  // returning, so the caller may destroy the listener immediately
  // after.
  Status Run();

 private:
  struct Session {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  // Session-thread body: handshake, writer-slot claim or reader loop,
  // state reset on writer disconnect.
  void RunSession(Session* session);
  // Joins and closes every finished session; returns the live count.
  // Caller holds mu_.
  size_t SweepSessionsLocked();

  ShardListenerOptions options_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;

  ShardInstanceState state_;

  std::mutex mu_;  // Guards sessions_, writer_active_, writer_status_.
  std::list<Session> sessions_;
  bool writer_active_ = false;
  // Signaled when the writer slot drains (and at wind-down): a
  // coordinator that reconnects right after dropping its old session —
  // kill/restart, replica repair — races the old session thread's EOF
  // observation, so a new writer waits briefly for the slot instead of
  // being refused over a doomed predecessor.
  std::condition_variable writer_cv_;
  bool stopping_ = false;
  // Set when a writer session ends with an orderly kShutdown; what
  // Run() returns.
  bool shutdown_requested_ = false;
};

}  // namespace gz

#endif  // GZ_DISTRIBUTED_SHARD_LISTENER_H_
