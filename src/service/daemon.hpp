// ExperimentDaemon: a long-lived simulation service over the framed
// protocol (service/protocol.hpp).
//
// One daemon owns an on-disk result cache and a pool of simulation workers;
// any number of sweep clients connect, ship serialized cells, and read back
// `.erelres` entries that are byte-identical to what a local cached run
// would have produced. Identical fingerprints are deduplicated at every
// level: served from disk when present, folded into the in-flight cell when
// one is already simulating (the second requester simply joins the first's
// completion), simulated exactly once otherwise.
//
// Threading (two kinds of threads, one lock):
//   loop thread    net::EventServer::run(): all socket I/O, all frame
//                  handling, all send()s. Completions arrive via post().
//   pool workers   run one cell each (harness::run_one); they touch only
//                  the in-flight table (under mu_) and the filesystem.
//
// A cell stays in the in-flight table while at least one request waits on
// it. When the last waiter leaves (kCancel or disconnect) the cell is
// reaped: dropped if still queued, stopped cooperatively if running.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/server.hpp"
#include "service/protocol.hpp"
#include "service/store.hpp"

namespace erel::service {

class ExperimentDaemon : public net::EventServer::Handler {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;   // 0 = ephemeral; read back via port()
    std::string cache_dir;    // "" = no disk cache (pure compute server)
    unsigned workers = 0;     // simulation pool size; 0 = hardware

    /// Admission control: most cells queued-or-running before a new
    /// kRunCell is refused with kBusy. 0 = unlimited. Cache hits and
    /// in-flight joins are never refused (they cost no queue slot).
    std::size_t max_queue = 0;
    /// Result-store byte budget, enforced by LRU eviction (service/
    /// store.hpp). 0 = unlimited.
    std::uint64_t max_cache_bytes = 0;
    /// Retry hint carried in kBusy replies, milliseconds.
    unsigned busy_retry_ms = 50;
  };

  explicit ExperimentDaemon(const Options& opts);

  ExperimentDaemon(const ExperimentDaemon&) = delete;
  ExperimentDaemon& operator=(const ExperimentDaemon&) = delete;

  /// False when the listening socket could not be bound (error() says why).
  [[nodiscard]] bool valid() const { return server_.valid(); }
  [[nodiscard]] const std::string& error() const { return server_.error(); }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

  /// Serves until stop(); call from one thread (it becomes the loop
  /// thread). Outstanding simulations are drained before returning.
  void run();

  /// Thread-safe (and signal-safe: one atomic store + one pipe write).
  void stop() { server_.stop(); }

  [[nodiscard]] DaemonStats stats() const;

  // ---- net::EventServer::Handler (loop thread) ----
  void on_connect(std::uint64_t client) override;
  void on_frame(std::uint64_t client, net::Frame frame) override;
  void on_disconnect(std::uint64_t client) override;

 private:
  struct Waiter {
    std::uint64_t client = 0;
    std::uint64_t request_id = 0;
  };
  /// One cell being simulated (or queued), keyed by fingerprint hex.
  struct InFlight {
    CellRequest request;
    std::vector<Waiter> waiters;
    bool running = false;  // a pool worker has picked it up
    /// Cooperative cancel flag, polled between the run's sampling batches.
    /// Set when the last waiter leaves a running cell; cleared when a new
    /// requester joins before the worker notices.
    std::shared_ptr<std::atomic<bool>> cancel;
  };

  void handle_run_cell(std::uint64_t client, const net::Frame& frame);
  void handle_cancel(std::uint64_t client, const net::Frame& frame);
  void send_error(std::uint64_t client, std::uint64_t id,
                  const std::string& message);
  void run_cell(const std::string& fp_hex);        // pool worker
  void complete_cell(const std::string& fp_hex,    // loop thread (posted)
                     const std::string& entry_text);
  /// Worker, after an observed cancellation: drops the cell (counting it
  /// cancelled) or resubmits it if a new requester joined meanwhile.
  void abort_cell(const std::string& fp_hex);
  /// Requires mu_. Reaps `it`'s cell if nothing waits on it anymore:
  /// erased outright when still queued, flagged for cooperative
  /// cancellation when running. Returns the next iterator.
  std::map<std::string, std::shared_ptr<InFlight>>::iterator reap_if_orphaned(
      std::map<std::string, std::shared_ptr<InFlight>>::iterator it);

  Options opts_;
  net::EventServer server_;
  ThreadPool pool_;
  ResultStore store_;  // owns cache_dir IO when a cache dir is configured

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<InFlight>> inflight_;
  DaemonStats stats_;
};

}  // namespace erel::service
