// Deterministic network fault injection for tests and chaos CI.
//
// A FaultPlan is a seed: it deterministically maps a connection index to a
// FaultSpec (drop-after-N-bytes, mid-frame stall, short writes, blackhole),
// so a failing chaos run is reproduced exactly by its seed — the same
// discipline the simulator applies to workload generation (common/bits.hpp
// Xorshift) extended to the wire. FaultProxy, a loopback TCP forwarder,
// applies the plan to whole connections, for end-to-end tests (and the CI
// chaos job) that drive an unmodified client/daemon pair through a hostile
// network; the fuzz corpus draws split points from the same plan.
//
// Nothing in src/service/ links against this header; production code paths
// stay fault-free by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace erel::net {

/// One connection's scheduled failure.
struct FaultSpec {
  enum class Kind {
    kNone,        // healthy connection
    kShortWrite,  // bytes dribble through in 1..7-byte fragments
    kStall,       // forwarding pauses for stall_ms once after_bytes passed
    kDrop,        // connection dies (RST/EOF) once after_bytes forwarded
    kBlackhole,   // bytes past after_bytes vanish; the socket stays open
  };
  Kind kind = Kind::kNone;
  std::uint64_t after_bytes = 0;  // bytes let through before the fault fires
  unsigned stall_ms = 0;          // kStall pause length
  bool server_to_client = false;  // direction the fault applies to
};

/// Seeded splitmix64 schedule of per-connection faults. Copyable and
/// stateless: spec_for_connection(i) depends only on (seed, i), so the
/// proxy, the test, and a human reading a CI log all agree on what
/// connection i suffered.
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// The fault assigned to the index-th accepted connection. Roughly half
  /// of all indices are kNone/kShortWrite (the connection works), so a
  /// client retrying with backoff converges on success in a few attempts.
  [[nodiscard]] FaultSpec spec_for_connection(std::uint64_t index) const;

  /// Deterministic uniform draw in [0, bound) at step `k` of stream
  /// `stream` — the fuzz corpus uses this to pick split points and garbage
  /// bytes without threading RNG state around. bound must be nonzero.
  [[nodiscard]] std::uint64_t draw(std::uint64_t stream, std::uint64_t k,
                                   std::uint64_t bound) const;

 private:
  std::uint64_t seed_;
};

/// Loopback TCP proxy that forwards every accepted connection to an
/// upstream endpoint through the fault assigned by the plan. Each accepted
/// connection gets two pump threads (one per direction); stop() (and the
/// destructor) tears everything down and joins them. Connection indices
/// count from 0 in accept order.
class FaultProxy {
 public:
  FaultProxy(std::string upstream_host, std::uint16_t upstream_port,
             FaultPlan plan, const std::string& listen_host = "127.0.0.1",
             std::uint16_t listen_port = 0);
  ~FaultProxy();

  FaultProxy(const FaultProxy&) = delete;
  FaultProxy& operator=(const FaultProxy&) = delete;

  [[nodiscard]] bool valid() const { return listener_.valid(); }
  [[nodiscard]] const std::string& error() const { return listener_.error(); }
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Starts the accept loop; idempotent.
  void start();

  /// Stops accepting, severs every live connection, joins all threads.
  /// Safe to call more than once.
  void stop();

  /// Connections accepted so far (== the next connection's plan index).
  [[nodiscard]] std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    Socket client;
    Socket upstream;
    FaultSpec spec;
    std::uint64_t index = 0;
  };

  void accept_loop();
  void pump(const std::shared_ptr<Conn>& conn, bool server_to_client);
  bool sleep_unless_stopped(unsigned ms);

  std::string upstream_host_;
  std::uint16_t upstream_port_;
  FaultPlan plan_;
  Listener listener_;

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::thread accept_thread_;
  std::mutex mu_;  // guards pumps_ and conns_
  std::vector<std::thread> pumps_;
  std::vector<std::shared_ptr<Conn>> conns_;
  bool started_ = false;
};

}  // namespace erel::net
