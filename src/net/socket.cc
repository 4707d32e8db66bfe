#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "util/fault_injection.h"

namespace kvec {
namespace net {
namespace {

// Resolves the numeric-IPv4-or-localhost `host` into `*addr`.
bool FillAddress(const std::string& host, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  return inet_pton(AF_INET, numeric.c_str(), &addr->sin_addr) == 1;
}

// Waits until `fd` is ready for `events` or `timeout_ms` passes. Returns
// kOk / kTimeout / kError.
IoStatus PollFor(int fd, short events, int timeout_ms) {
  pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    const int ready = poll(&pfd, 1, timeout_ms);
    if (ready > 0) return IoStatus::kOk;
    if (ready == 0) return IoStatus::kTimeout;
    if (errno == EINTR) continue;
    return IoStatus::kError;
  }
}

// Remaining budget of an absolute deadline, clamped to >= 0.
int RemainingMs(int64_t deadline_ms) {
  const int64_t left = deadline_ms - SteadyNowMs();
  if (left <= 0) return 0;
  if (left > 1 << 30) return 1 << 30;
  return static_cast<int>(left);
}

}  // namespace

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool DeadlineExpired(int64_t deadline_ms) {
  // Failable point: an armed hook expires any deadline instantly, which is
  // how tests force the idle-timeout eviction path without real waiting.
  if (KVEC_FAULT_POINT("net.deadline")) return true;
  return SteadyNowMs() >= deadline_ms;
}

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::ShutdownRead() {
  if (fd_ >= 0) shutdown(fd_, SHUT_RD);
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

IoStatus Socket::SendAll(const char* data, size_t size, int timeout_ms) {
  if (fd_ < 0) return IoStatus::kClosed;
  // Failable point: an armed hook makes the write fail as if the peer
  // vanished mid-frame (torn write from the receiver's point of view).
  if (KVEC_FAULT_POINT("net.write_frame")) return IoStatus::kError;
  const int64_t deadline = SteadyNowMs() + timeout_ms;
  size_t sent = 0;
  while (sent < size) {
    const IoStatus ready = PollFor(fd_, POLLOUT, RemainingMs(deadline));
    if (ready != IoStatus::kOk) return ready;
    const ssize_t n =
        send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                  errno == EWOULDBLOCK)) {
      continue;
    }
    return errno == EPIPE || errno == ECONNRESET ? IoStatus::kClosed
                                                 : IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus Socket::RecvSome(char* data, size_t size, int timeout_ms,
                          size_t* received) {
  *received = 0;
  if (fd_ < 0) return IoStatus::kClosed;
  // Failable point: an armed hook turns this read into a disconnect,
  // which is how tests tear a frame mid-payload deterministically.
  if (KVEC_FAULT_POINT("net.read_frame")) return IoStatus::kClosed;
  const IoStatus ready = PollFor(fd_, POLLIN, timeout_ms);
  if (ready != IoStatus::kOk) return ready;
  for (;;) {
    const ssize_t n = recv(fd_, data, size, 0);
    if (n > 0) {
      *received = static_cast<size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    return errno == ECONNRESET ? IoStatus::kClosed : IoStatus::kError;
  }
}

Socket Socket::Connect(const std::string& host, uint16_t port,
                       int timeout_ms, std::string* error) {
  sockaddr_in addr;
  if (!FillAddress(host, port, &addr)) {
    *error = "cannot parse host '" + host + "' (numeric IPv4 or localhost)";
    return Socket();
  }
  Socket sock(socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) {
    *error = std::string("socket(): ") + std::strerror(errno);
    return Socket();
  }
  // Non-blocking connect so the timeout is enforceable.
  const int flags = fcntl(sock.fd(), F_GETFL, 0);
  fcntl(sock.fd(), F_SETFL, flags | O_NONBLOCK);
  if (connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
              sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    *error = std::string("connect(): ") + std::strerror(errno);
    return Socket();
  }
  if (PollFor(sock.fd(), POLLOUT, timeout_ms) != IoStatus::kOk) {
    *error = "connect timeout to " + host + ":" + std::to_string(port);
    return Socket();
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
      so_error != 0) {
    *error = std::string("connect(): ") +
             std::strerror(so_error != 0 ? so_error : errno);
    return Socket();
  }
  fcntl(sock.fd(), F_SETFL, flags);  // back to blocking; IO is poll-paced
  int one = 1;
  setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

ListenSocket::~ListenSocket() { Close(); }

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

void ListenSocket::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

ListenSocket ListenSocket::Bind(const std::string& host, uint16_t port,
                                int backlog, std::string* error) {
  sockaddr_in addr;
  if (!FillAddress(host, port, &addr)) {
    *error = "cannot parse host '" + host + "' (numeric IPv4 or localhost)";
    return ListenSocket();
  }
  ListenSocket sock;
  sock.fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (sock.fd_ < 0) {
    *error = std::string("socket(): ") + std::strerror(errno);
    return ListenSocket();
  }
  int one = 1;
  setsockopt(sock.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(sock.fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    *error = "bind(" + host + ":" + std::to_string(port) +
             "): " + std::strerror(errno);
    return ListenSocket();
  }
  if (listen(sock.fd_, backlog) != 0) {
    *error = std::string("listen(): ") + std::strerror(errno);
    return ListenSocket();
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (getsockname(sock.fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    *error = std::string("getsockname(): ") + std::strerror(errno);
    return ListenSocket();
  }
  sock.port_ = ntohs(bound.sin_port);
  return sock;
}

Socket ListenSocket::Accept(int timeout_ms, bool* timed_out) {
  *timed_out = false;
  if (fd_ < 0) return Socket();
  const IoStatus ready = PollFor(fd_, POLLIN, timeout_ms);
  if (ready == IoStatus::kTimeout) {
    *timed_out = true;
    return Socket();
  }
  if (ready != IoStatus::kOk) return Socket();
  const int fd = accept(fd_, nullptr, nullptr);
  if (fd < 0) return Socket();
  Socket sock(fd);
  // Failable point: an armed hook drops the connection at the threshold,
  // as if the client vanished between connect and first byte.
  if (KVEC_FAULT_POINT("net.accept")) return Socket();
  int one = 1;
  setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

}  // namespace net
}  // namespace kvec
