#include "common/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

namespace privshape {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Result<sockaddr_in> MakeAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

void UniqueFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<UniqueFd> TcpListen(const std::string& host, uint16_t port,
                           int backlog) {
  auto addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  int one = 1;
  // Restarting a daemon must not fail on the previous run's TIME_WAIT.
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    return ErrnoStatus("setsockopt(SO_REUSEADDR)");
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&*addr),
             sizeof(*addr)) != 0) {
    return ErrnoStatus("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) != 0) return ErrnoStatus("listen");
  return fd;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<UniqueFd> TcpConnect(const std::string& host, uint16_t port) {
  auto addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&*addr),
                   sizeof(*addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return ErrnoStatus("connect " + host + ":" + std::to_string(port));
  }
  return fd;
}

Result<UniqueFd> TcpAccept(int listen_fd) {
  int fd;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return UniqueFd();
    return ErrnoStatus("accept");
  }
  return UniqueFd(fd);
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return ErrnoStatus("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return Status::Ok();
}

Status SetRecvTimeout(int fd, double seconds) {
  // +infinity would overflow the time_t cast below.
  if (!std::isfinite(seconds) || seconds <= 0.0) {
    return Status::InvalidArgument(
        "receive timeout must be finite and positive");
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return ErrnoStatus("setsockopt(SO_RCVTIMEO)");
  }
  return Status::Ok();
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return ErrnoStatus("setsockopt(TCP_NODELAY)");
  }
  return Status::Ok();
}

Status WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    // MSG_NOSIGNAL: a peer that closed mid-protocol (daemon shutdown,
    // dropped connection) must surface as EPIPE, not kill the process.
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send");
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::Ok();
}

Result<size_t> ReadSome(int fd, void* buf, size_t cap) {
  while (true) {
    ssize_t n = ::read(fd, buf, cap);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // On a blocking socket this means SO_RCVTIMEO elapsed.
      return Status::Internal("read timed out");
    }
    return ErrnoStatus("read");
  }
}

Result<size_t> SendSome(int fd, std::string_view data) {
  while (true) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return ErrnoStatus("send");
  }
}

Result<RecvOutcome> RecvSome(int fd, void* buf, size_t cap) {
  while (true) {
    ssize_t n = ::recv(fd, buf, cap, 0);
    if (n > 0) return RecvOutcome{static_cast<size_t>(n), false, false};
    if (n == 0) return RecvOutcome{0, true, false};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return RecvOutcome{0, false, true};
    }
    return ErrnoStatus("recv");
  }
}

Poller::Poller() : epoll_fd_(::epoll_create1(0)) {}

Status Poller::Add(int fd, uint64_t tag, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    return ErrnoStatus("epoll_ctl(ADD)");
  }
  return Status::Ok();
}

Status Poller::Modify(int fd, uint64_t tag, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    return ErrnoStatus("epoll_ctl(MOD)");
  }
  return Status::Ok();
}

Status Poller::Remove(int fd) {
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr) != 0) {
    return ErrnoStatus("epoll_ctl(DEL)");
  }
  return Status::Ok();
}

Status Poller::Wait(std::vector<PollEvent>* events, int timeout_ms) {
  events->clear();
  epoll_event raw[64];
  int n = ::epoll_wait(epoll_fd_.get(), raw, 64, timeout_ms);
  if (n < 0) {
    // A signal mid-wait is not an error: the caller re-checks its
    // deadline and shutdown flag on the empty return.
    if (errno == EINTR) return Status::Ok();
    return ErrnoStatus("epoll_wait");
  }
  events->reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    PollEvent event;
    event.tag = raw[i].data.u64;
    event.readable = (raw[i].events & EPOLLIN) != 0;
    event.writable = (raw[i].events & EPOLLOUT) != 0;
    event.error = (raw[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events->push_back(event);
  }
  return Status::Ok();
}

}  // namespace privshape
