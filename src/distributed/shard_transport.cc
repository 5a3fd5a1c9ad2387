#include "distributed/shard_transport.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "distributed/shard_process.h"
#include "distributed/shard_server.h"
#include "util/check.h"

namespace gz {

Status ShardTransport::CallAck(ShardMessageType type, const void* payload,
                               size_t payload_bytes, ShardAck* ack) {
  if (fd() < 0) return Status::IoError("shard socket not open");
  Status s = SendFrame(fd(), type, payload, payload_bytes);
  if (!s.ok()) return s;
  bool in_sync = false;
  s = RecvReply(fd(), ShardMessageType::kAck, &reply_buf_, &in_sync);
  if (!s.ok()) return s;
  return DecodeShardAck(reply_buf_.payload.data(), reply_buf_.payload.size(),
                        ack);
}

std::unique_ptr<ShardTransport> MakeShardTransport(
    const ShardEndpoint& endpoint, const ShardTransportOptions& options) {
  switch (endpoint.kind) {
    case ShardEndpoint::Kind::kThread:
      return std::make_unique<ThreadShardTransport>(options.auth_secret);
    case ShardEndpoint::Kind::kLocal:
      return std::make_unique<ShardProcess>(options.binary, options.log_path,
                                            options.auth_secret);
    case ShardEndpoint::Kind::kTcp:
      break;
  }
  return std::make_unique<TcpShardTransport>(endpoint, options.auth_secret);
}

// ---- ThreadShardTransport -------------------------------------------------

ThreadShardTransport::ThreadShardTransport(std::string auth_secret)
    : auth_secret_(std::move(auth_secret)) {}

ThreadShardTransport::~ThreadShardTransport() {
  Terminate();
  if (fd_ >= 0) ::close(fd_);
}

Status ThreadShardTransport::Connect() {
  if (Alive()) {
    return Status::FailedPrecondition("shard thread already serving");
  }
  Terminate();  // Joins a thread that left Serve() on its own.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  int sv[2];
  // CLOEXEC on both ends: a gz_shard child forked later must not hold
  // a copy that keeps this socket half-open after the thread stops.
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    return Status::IoError(std::string("socketpair: ") +
                           std::strerror(errno));
  }
  fd_ = sv[0];
  server_fd_ = sv[1];
  serving_ = true;
  server_ = std::thread([this, server_fd = sv[1]] {
    // The session's end status is the coordinator's to observe, on its
    // own end of the socket: whatever ends Serve() — kShutdown, lost
    // framing, Terminate(), an exception — the server end is shut down
    // as a gz_shard exit would close it, so no coordinator read waits
    // on a shard that is gone.
    try {
      (void)ShardServer(server_fd, auth_secret_).Serve();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "thread shard: %s\n", e.what());
    }
    ::shutdown(server_fd, SHUT_RDWR);
    serving_ = false;
  });
  Status s = ClientHandshake(fd_, auth_secret_);
  if (!s.ok()) {
    Terminate();
    return s;
  }
  return Status::Ok();
}

void ThreadShardTransport::Terminate() {
  // shutdown() wakes a server blocked in recv (EOF) or send (EPIPE),
  // so the join never waits on the coordinator; data already queued
  // toward the coordinator stays readable on fd_.
  if (server_fd_ >= 0) ::shutdown(server_fd_, SHUT_RDWR);
  if (server_.joinable()) server_.join();
  if (server_fd_ >= 0) {
    ::close(server_fd_);
    server_fd_ = -1;
  }
}

// ---- Child-process plumbing -----------------------------------------------

extern "C" char** environ;

Result<pid_t> SpawnShardChild(const std::string& binary,
                              const std::vector<std::string>& args,
                              const std::string& log_path,
                              const std::string& auth_secret,
                              int inherit_fd) {
  // Everything the child dereferences is materialized BEFORE fork():
  // between fork and exec only async-signal-safe calls are allowed,
  // and that includes no allocation.
  std::vector<const char*> argv;
  argv.push_back(binary.c_str());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  argv.push_back(nullptr);
  const std::string secret_entry = "GZ_SHARD_AUTH_SECRET=" + auth_secret;
  std::vector<const char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GZ_SHARD_AUTH_SECRET=", 21) == 0) continue;
    envp.push_back(*e);
  }
  envp.push_back(secret_entry.c_str());
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    (void)inherit_fd;  // Stays open (no CLOEXEC on it by contract).
    if (!log_path.empty()) {
      const int log_fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDERR_FILENO);
        if (log_fd != STDERR_FILENO) ::close(log_fd);
      }
    }
    ::execve(binary.c_str(), const_cast<char* const*>(argv.data()),
             const_cast<char* const*>(envp.data()));
    const char msg[] = "gz_shard exec failed\n";
    const ssize_t ignored = ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
    (void)ignored;
    ::_exit(127);
  }
  return pid;
}

bool ShardChildRunning(pid_t pid, bool* reaped) {
  if (pid < 0 || *reaped) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid, &status, WNOHANG);
  if (r == pid) {
    *reaped = true;
    return false;
  }
  return r == 0;
}

void KillShardChild(pid_t pid, bool* reaped) {
  if (pid < 0 || *reaped) return;
  ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  *reaped = true;
}

// ---- TcpShardTransport ----------------------------------------------------

namespace {

// connect() bounded by a deadline instead of the kernel's SYN-retry
// budget (~2 minutes): a blackholed endpoint — DROP firewall, powered-
// off host on a routed subnet — must fail Start()/RestartShard in
// seconds, not stall them for minutes. True on success; false leaves
// the reason in errno (ETIMEDOUT for the deadline).
bool ConnectWithDeadline(int fd, const struct sockaddr* addr,
                         socklen_t addrlen) {
  constexpr int kConnectTimeoutMs = 10 * 1000;
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, addr, addrlen);
  if (rc != 0 && errno == EINPROGRESS) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    do {
      rc = ::poll(&pfd, 1, kConnectTimeoutMs);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      errno = ETIMEDOUT;
      rc = -1;
    } else if (rc > 0) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      errno = err;
      rc = err == 0 ? 0 : -1;
    }
  }
  const int saved_errno = errno;
  ::fcntl(fd, F_SETFL, flags);  // Back to blocking for the session.
  errno = saved_errno;
  return rc == 0;
}

}  // namespace

TcpShardTransport::TcpShardTransport(ShardEndpoint endpoint,
                                     std::string auth_secret,
                                     ShardSessionRole role)
    : endpoint_(std::move(endpoint)),
      auth_secret_(std::move(auth_secret)),
      role_(role) {
  GZ_CHECK(endpoint_.kind == ShardEndpoint::Kind::kTcp);
}

TcpShardTransport::~TcpShardTransport() { Terminate(); }

void TcpShardTransport::Terminate() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TcpShardTransport::Connect() {
  Terminate();
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  const std::string port_str = std::to_string(endpoint_.port);
  struct addrinfo* addrs = nullptr;
  const int rc =
      ::getaddrinfo(endpoint_.host.c_str(), port_str.c_str(), &hints, &addrs);
  if (rc != 0) {
    return Status::IoError("cannot resolve " + endpoint_.ToString() + ": " +
                           ::gai_strerror(rc));
  }
  // Only connection-refused retries: that is the listener still
  // tearing down its previous session (a restart drill reconnects the
  // instant after it aborted the old connection), and it clears within
  // milliseconds. Anything else — unreachable host, reset, resolution
  // to a dead box — fails fast rather than stalling Start() behind a
  // misconfigured endpoint. Backoff doubles from 10ms, ~3s total.
  Status last = Status::IoError("no addresses for " + endpoint_.ToString());
  useconds_t backoff_us = 10 * 1000;
  for (int attempt = 0; attempt < 9; ++attempt) {
    if (attempt > 0) {
      ::usleep(backoff_us);
      backoff_us = std::min<useconds_t>(backoff_us * 2, 1000 * 1000);
    }
    bool refused = false;
    for (struct addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
      const int fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
      if (fd < 0) continue;
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      if (ConnectWithDeadline(fd, a->ai_addr, a->ai_addrlen)) {
        TuneShardSocket(fd);
        Status s = ClientHandshake(fd, auth_secret_, role_);
        if (!s.ok()) {
          ::close(fd);
          ::freeaddrinfo(addrs);
          return s;  // Auth/framing failures do not retry.
        }
        fd_ = fd;
        ::freeaddrinfo(addrs);
        return Status::Ok();
      }
      refused = refused || errno == ECONNREFUSED;
      last = Status::IoError("connect " + endpoint_.ToString() + ": " +
                             std::strerror(errno));
      ::close(fd);
    }
    if (!refused) break;
  }
  ::freeaddrinfo(addrs);
  return last;
}

// ---- ListenerShard --------------------------------------------------------

ListenerShard::~ListenerShard() { Stop(); }

bool ListenerShard::Running() { return ShardChildRunning(pid_, &reaped_); }

void ListenerShard::Stop() { KillShardChild(pid_, &reaped_); }

Status ListenerShard::Start(const std::string& binary,
                            const std::string& scratch_dir,
                            const std::string& log_path,
                            const std::string& auth_secret) {
  if (pid_ >= 0 && Running()) {
    return Status::FailedPrecondition("listener shard already running");
  }
  static int counter = 0;
  const std::string port_file = scratch_dir + "/gz_listener_p" +
                                std::to_string(::getpid()) + "_" +
                                std::to_string(counter++) + ".port";
  ::unlink(port_file.c_str());
  Result<pid_t> pid = SpawnShardChild(
      binary, {"--listen", "127.0.0.1:0", "--port-file", port_file},
      log_path, auth_secret);
  if (!pid.ok()) return pid.status();
  pid_ = pid.value();
  reaped_ = false;
  // The child publishes the kernel-assigned port once bound; poll for
  // it (the write is tiny and atomic via rename on the child side).
  for (int attempt = 0; attempt < 1500; ++attempt) {
    FILE* f = std::fopen(port_file.c_str(), "rb");
    if (f != nullptr) {
      long port = 0;
      const int matched = std::fscanf(f, "%ld", &port);
      std::fclose(f);
      if (matched == 1 && port > 0 && port <= 65535) {
        port_ = static_cast<uint16_t>(port);
        ::unlink(port_file.c_str());
        return Status::Ok();
      }
    }
    if (!Running()) break;
    ::usleep(10 * 1000);
  }
  Stop();
  ::unlink(port_file.c_str());
  return Status::IoError("listener shard did not publish a port (see " +
                         (log_path.empty() ? std::string("its stderr")
                                           : log_path) +
                         ")");
}

Status StartListenerShards(const std::string& binary, int count,
                           const std::string& scratch_dir,
                           const std::string& log_prefix,
                           const std::string& auth_secret,
                           std::vector<std::unique_ptr<ListenerShard>>* fleet,
                           std::vector<std::string>* endpoints) {
  for (int i = 0; i < count; ++i) {
    auto listener = std::make_unique<ListenerShard>();
    const std::string log =
        log_prefix.empty()
            ? std::string()
            : log_prefix + std::to_string(fleet->size()) + ".log";
    Status s = listener->Start(binary, scratch_dir, log, auth_secret);
    if (!s.ok()) {
      return Status(s.code(), "listener shard " +
                                  std::to_string(fleet->size()) + ": " +
                                  s.message());
    }
    endpoints->push_back(listener->endpoint());
    fleet->push_back(std::move(listener));
  }
  return Status::Ok();
}

}  // namespace gz
