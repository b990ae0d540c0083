// poll()-based event-loop server for the framed protocol (net/frame.hpp).
//
// Single-threaded reactor: one thread calls run(), which poll()s the
// listening socket plus every connected client, decodes complete frames and
// hands them to the Handler. Worker threads never touch sockets — they hand
// completed work back to the loop with post(), which enqueues a closure and
// wakes poll() through a self-pipe; the closure then runs on the loop
// thread, where calling send()/close_client() is safe. This is the
// camsgtask/rsrv shape from EPICS-style control servers: per-client message
// handling over one shared reactor, writers funneled through the loop.
//
// Outbound data is buffered per client and drained as POLLOUT reports
// writability, so a slow reader cannot block the loop (a client whose
// buffer exceeds kMaxOutboundBuffer is dropped instead).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace erel::net {

/// A client that pipelines many cells and stops reading backs up their
/// results (each a full `.erelres` entry); cap the per-client outbound
/// buffer and drop the connection instead of growing without bound.
inline constexpr std::size_t kMaxOutboundBuffer = 256u << 20;

class EventServer {
 public:
  /// Callbacks fire on the loop thread. `client` ids are unique for the
  /// server's lifetime (never reused), so a stale id in a post()ed closure
  /// addresses nothing rather than the wrong connection.
  struct Handler {
    virtual ~Handler() = default;
    virtual void on_connect(std::uint64_t client) { (void)client; }
    virtual void on_frame(std::uint64_t client, Frame frame) = 0;
    virtual void on_disconnect(std::uint64_t client) { (void)client; }
  };

  /// Binds immediately; valid() reports success (error() the reason).
  EventServer(Handler& handler, const std::string& host = "127.0.0.1",
              std::uint16_t port = 0);
  ~EventServer();

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  [[nodiscard]] bool valid() const { return listener_.valid(); }
  [[nodiscard]] const std::string& error() const { return listener_.error(); }
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Runs the event loop until stop(). Call from exactly one thread.
  void run();

  /// Thread-safe: wakes the loop and makes run() return after the current
  /// iteration.
  void stop();

  /// Thread-safe: runs `fn` on the loop thread (the only place send and
  /// close_client may be called). Closures posted after stop() are dropped.
  void post(std::function<void()> fn);

  // ---- loop-thread-only operations ----

  /// Queues a frame for `client`; silently ignores dead/unknown ids (the
  /// client may have disconnected between the work starting and finishing).
  void send(std::uint64_t client, const Frame& frame);

  /// Closes the connection (on_disconnect fires).
  void close_client(std::uint64_t client);

  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }

  /// Clients dropped for exceeding kMaxOutboundBuffer. Thread-safe read;
  /// surfaced in DaemonStats as `dropped_clients`.
  [[nodiscard]] std::uint64_t overflow_drops() const {
    return overflow_drops_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    Socket socket;
    FrameDecoder decoder;
    std::string outbound;
  };

  void wake();
  void accept_new();
  bool drain_readable(std::uint64_t client);   // false = drop connection
  bool flush_writable(Connection& conn);       // false = drop connection
  void drop(std::uint64_t client);
  void run_posted();

  Handler& handler_;
  Listener listener_;
  std::map<std::uint64_t, Connection> conns_;
  std::uint64_t next_client_ = 1;

  std::atomic<std::uint64_t> overflow_drops_{0};

  int wake_pipe_[2] = {-1, -1};
  std::mutex post_mu_;
  std::deque<std::function<void()>> posted_;
  bool stopping_ = false;  // loop-thread view; set via posted closure
  std::atomic<bool> stop_requested_{false};
};

}  // namespace erel::net
