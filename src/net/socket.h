// Deadline-bounded POSIX TCP sockets for the network front end.
//
// This is the ONLY file in the repository allowed to touch the raw socket
// syscalls (socket/bind/listen/accept/connect/send/recv/...); the project
// lint's raw-syscall rule rejects them anywhere else, so every byte that
// crosses the process boundary goes through the deadline and
// fault-injection discipline here:
//
//   * Every blocking operation takes an explicit timeout and is
//     implemented as poll()+syscall, so a slow or dead peer can stall a
//     connection for at most its deadline, never forever.
//   * SendAll loops until the whole buffer is written (short writes are
//     normal under pressure) under one overall deadline; SIGPIPE is
//     suppressed per call (MSG_NOSIGNAL), so a vanished peer is an error
//     return, never a process kill.
//   * The fault points `net.read_frame`, `net.write_frame` and
//     `net.deadline` fire inside RecvSome/SendAll/deadline checks, letting
//     tests force torn reads, failed writes, and instant deadline expiry
//     deterministically (util/fault_injection.h).
//
// Sockets are movable RAII owners of their fd. Shutdown*() wakes a peer
// thread blocked in poll on the same fd without closing it — the owner
// thread remains the only closer, which is what makes cross-thread
// connection eviction race-free.
#pragma once

#include <cstdint>
#include <string>

namespace kvec {
namespace net {

enum class IoStatus {
  kOk,
  kTimeout,  // deadline expired before the operation completed
  kClosed,   // orderly peer shutdown (EOF) or operation on a closed socket
  kError,    // errno-level failure (connection reset, refused, ...)
};

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Half/full shutdown without closing the fd: wakes a thread blocked in
  // poll/recv on this socket (it sees EOF). Safe to call from another
  // thread while the owner is mid-read; only the owner ever closes.
  void ShutdownRead();
  void ShutdownBoth();
  void Close();

  // Writes all `size` bytes within `timeout_ms`. Fires `net.write_frame`.
  IoStatus SendAll(const char* data, size_t size, int timeout_ms);

  // Reads 1..size bytes into `data` within `timeout_ms`; `*received` gets
  // the count (0 with kClosed on EOF). Fires `net.read_frame`.
  IoStatus RecvSome(char* data, size_t size, int timeout_ms,
                    size_t* received);

  // Connects to host:port within `timeout_ms`. `host` is a numeric IPv4
  // address or "localhost". Invalid socket + `*error` on failure.
  static Socket Connect(const std::string& host, uint16_t port,
                        int timeout_ms, std::string* error);

 private:
  int fd_ = -1;
};

class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket();

  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  // The actually bound port — with port 0 the kernel picks an ephemeral
  // one, which is what keeps loopback tests and CI from colliding.
  uint16_t port() const { return port_; }

  // Binds host:port (SO_REUSEADDR) and listens. Invalid + `*error` on
  // failure.
  static ListenSocket Bind(const std::string& host, uint16_t port,
                           int backlog, std::string* error);

  // Waits up to `timeout_ms` for one connection. Returns an invalid
  // socket on timeout or error (`*timed_out` disambiguates). Fires
  // `net.accept`; an injected fault drops the pending connection.
  Socket Accept(int timeout_ms, bool* timed_out);

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

// True when `deadline_ms` (a steady-clock epoch in ms, as returned by
// SteadyNowMs) has passed. Fires `net.deadline`: an armed hook forces
// instant expiry, which is how tests drive idle-timeout eviction without
// waiting out real clocks.
bool DeadlineExpired(int64_t deadline_ms);

// Milliseconds on the monotonic clock (never wall time; lint bans
// wall-clock seeds and this module follows suit for all deadlines).
int64_t SteadyNowMs();

}  // namespace net
}  // namespace kvec
