// Thin RAII layer over POSIX TCP sockets: a move-only fd owner, blocking
// client connect, and a listener bound to localhost by default. Everything
// the framed protocol needs and nothing more — event-loop plumbing lives in
// net/server.hpp, message semantics in src/service/.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/frame.hpp"

namespace erel::net {

/// Owns one file descriptor; closes it on destruction. Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  void close_fd();

  /// One poll()-bounded read: waits up to `timeout_ms` for readability,
  /// then appends whatever one recv() returns to `out`.
  enum class IoStatus {
    kOk,       // >= 1 byte appended
    kTimeout,  // deadline expired with nothing to read
    kEof,      // orderly shutdown from the peer
    kError,    // socket error; the connection is dead
  };
  IoStatus recv_some(std::string& out, int timeout_ms);

  // ---- blocking, whole-message IO (client side) ----

  /// Writes all of `bytes`; false on any error (the socket is then dead).
  bool send_all(std::string_view bytes);

  /// Reads exactly one frame, which must arrive whole within `timeout_ms`
  /// (measured from the call, across however many partial reads it
  /// takes). kError also covers corrupt framing. kTimeout leaves the
  /// connection and any partially decoded bytes intact — the caller may
  /// retry and the frame resumes where it left off; kEof/kError mean the
  /// connection is unusable (`*clean_eof` distinguishes orderly shutdown
  /// from mid-frame death).
  enum class RecvStatus { kFrame, kTimeout, kEof, kError };
  RecvStatus recv_frame_deadline(Frame& out, int timeout_ms,
                                 bool* clean_eof = nullptr);

  /// send_all(encode_frame(frame)).
  bool send_frame(const Frame& frame);

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

/// A TCP port: decimal digits only, at most 65535. 0 parses (a listener
/// reads it as "ephemeral"); nullopt on anything else.
std::optional<std::uint16_t> parse_port(std::string_view text);

/// "host:port" -> (host, port), port 1-65535; nullopt on a malformed spec.
std::optional<std::pair<std::string, std::uint16_t>> parse_endpoint(
    std::string_view spec);

/// Blocking TCP connect. Returns an invalid Socket on failure (resolver or
/// connect error), with the reason in `*error` when provided.
/// `timeout_ms` > 0 bounds each address attempt with a non-blocking
/// connect + poll (a daemon behind a dropping firewall fails in bounded
/// time instead of riding the OS's multi-minute SYN retry schedule);
/// 0 keeps the OS default blocking connect.
Socket connect_to(const std::string& host, std::uint16_t port,
                  std::string* error = nullptr, int timeout_ms = 0);

/// A listening TCP socket. Binds on construction; `valid()` is false (and
/// `error()` set) when bind/listen failed.
class Listener {
 public:
  /// `port` 0 picks an ephemeral port (read it back with port()).
  explicit Listener(const std::string& host = "127.0.0.1",
                    std::uint16_t port = 0);

  [[nodiscard]] bool valid() const { return socket_.valid(); }
  [[nodiscard]] int fd() const { return socket_.fd(); }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Blocking accept; invalid Socket on failure.
  Socket accept_client();

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
  std::string error_;
};

}  // namespace erel::net
