/// \file
/// Minimal TCP socket / epoll primitives for the collector daemon and the
/// load generator: RAII file descriptors, Status-returning listen /
/// connect / accept helpers, an epoll poller, and a monotonic clock for
/// deadline timers. Linux-only (epoll); like the rest of `common`, knows
/// nothing about time series or privacy.

#ifndef PRIVSHAPE_COMMON_SOCKET_H_
#define PRIVSHAPE_COMMON_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace privshape {

/// Owning file descriptor: closes on destruction, movable, non-copyable.
/// An empty UniqueFd holds -1.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Hands ownership of the fd to the caller.
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the held fd (if any).
  void Reset();

 private:
  int fd_ = -1;
};

/// Monotonic wall-clock seconds (steady_clock), the time base every
/// deadline in the network layer is expressed in.
double MonotonicSeconds();

/// Binds and listens on `host:port` (IPv4 dotted quad, e.g. "127.0.0.1").
/// `port` 0 picks an ephemeral port — read it back with LocalPort.
Result<UniqueFd> TcpListen(const std::string& host, uint16_t port,
                           int backlog = 128);

/// The port a bound socket actually listens on.
Result<uint16_t> LocalPort(int fd);

/// Blocking connect to `host:port`.
Result<UniqueFd> TcpConnect(const std::string& host, uint16_t port);

/// Accepts one pending connection from a listening socket. Returns an
/// invalid (empty) UniqueFd when no connection is pending (EAGAIN) —
/// distinct from an error status.
Result<UniqueFd> TcpAccept(int listen_fd);

/// Switches `fd` to non-blocking mode.
Status SetNonBlocking(int fd);

/// Bounds every blocking read on `fd` (SO_RCVTIMEO) so a dead peer cannot
/// hang a client thread forever.
Status SetRecvTimeout(int fd, double seconds);

/// Disables Nagle (the request/report exchange is latency-bound).
Status SetNoDelay(int fd);

/// Writes all of `data`, looping over partial writes and EINTR. For
/// blocking sockets; a receive-timeout peer that stops draining surfaces
/// as an error status, never a silent short write.
Status WriteAll(int fd, std::string_view data);

/// One blocking read of up to `cap` bytes into `buf`. Returns 0 on EOF.
/// EINTR retries; a timeout (SetRecvTimeout elapsed) is an error status.
Result<size_t> ReadSome(int fd, void* buf, size_t cap);

/// Non-blocking send of as much of `data` as the socket accepts right
/// now. Returns the byte count (0 = the socket is full, try again on
/// EPOLLOUT); a peer that vanished surfaces as a status, never SIGPIPE.
Result<size_t> SendSome(int fd, std::string_view data);

/// What one non-blocking RecvSome call read.
struct RecvOutcome {
  size_t n = 0;        ///< bytes read into the buffer
  bool eof = false;    ///< the peer closed its side
  bool again = false;  ///< nothing to read now (the socket would block)
};

/// Non-blocking read of up to `cap` bytes, with EOF and would-block
/// reported as distinct non-error outcomes. EINTR retries.
Result<RecvOutcome> RecvSome(int fd, void* buf, size_t cap);

/// One readiness event from Poller::Wait. `tag` is the caller's id for
/// the fd (connection index, listener sentinel, ...).
struct PollEvent {
  uint64_t tag = 0;
  bool readable = false;
  bool writable = false;
  /// Error or hangup on the fd; the owner should drop the connection.
  bool error = false;
};

/// Thin RAII wrapper over an epoll instance. Register each fd with a
/// caller-chosen tag; Wait fills a caller-owned event vector (reused
/// across calls, no steady-state allocation).
class Poller {
 public:
  Poller();
  ~Poller() = default;

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  bool valid() const { return epoll_fd_.valid(); }

  /// `want_write` additionally arms EPOLLOUT (level-triggered).
  Status Add(int fd, uint64_t tag, bool want_write = false);
  Status Modify(int fd, uint64_t tag, bool want_write);
  Status Remove(int fd);

  /// Waits up to `timeout_ms` (-1 = forever) and overwrites `*events`.
  /// Returns OK with an empty vector on timeout; EINTR (a signal, e.g.
  /// the shutdown handler) also returns OK-empty so the caller can check
  /// its shutdown flag.
  Status Wait(std::vector<PollEvent>* events, int timeout_ms);

 private:
  UniqueFd epoll_fd_;
};

}  // namespace privshape

#endif  // PRIVSHAPE_COMMON_SOCKET_H_
