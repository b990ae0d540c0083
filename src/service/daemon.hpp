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
// Threading (two kinds of threads, two locks):
//   loop thread    net::EventServer::run(): all socket I/O, all frame
//                  handling, all send()s. Completions arrive via post().
//   pool workers   run one cell each (harness::run_one); they touch only
//                  the in-flight table (under mu_) and the store.
// The store is the cache dir, read and written through the same harness
// functions a local Experiment::run uses (harness/result_cache.hpp), under
// store_mu_: a load that quarantines a corrupt entry and a worker that
// publishes the fresh one never interleave, so the rename to `.bad` cannot
// move the entry a worker has just published.
//
// A request's waiter leaves when its connection closes. A queued cell that
// no request waits on anymore is dropped; a running cell always finishes
// into the result store, so a client that reconnects and resubmits joins
// it or hits the store.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/server.hpp"
#include "service/protocol.hpp"

namespace erel::service {

class ExperimentDaemon : public net::EventServer::Handler {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;   // 0 = ephemeral; read back via port()
    std::string cache_dir;    // result store; required (created if absent)
    unsigned workers = 0;     // simulation pool size; 0 = hardware
  };

  explicit ExperimentDaemon(const Options& opts);

  ExperimentDaemon(const ExperimentDaemon&) = delete;
  ExperimentDaemon& operator=(const ExperimentDaemon&) = delete;

  /// False when the listening socket could not be bound or the cache dir
  /// is missing or could not be created (error() says why).
  [[nodiscard]] bool valid() const {
    return server_.valid() && error_.empty();
  }
  [[nodiscard]] const std::string& error() const {
    return server_.valid() ? error_ : server_.error();
  }
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
  };

  void handle_run_cell(std::uint64_t client, const net::Frame& frame);
  void send_error(std::uint64_t client, std::uint64_t id,
                  const std::string& message);
  void run_cell(const std::string& fp_hex);        // pool worker
  void complete_cell(const std::string& fp_hex,    // loop thread (posted)
                     const std::string& entry_text);

  Options opts_;
  net::EventServer server_;
  ThreadPool pool_;
  std::string error_;  // why the cache dir is unusable; "" when it is fine
  std::mutex store_mu_;  // held around every load and store of cache_dir

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<InFlight>> inflight_;
  DaemonStats stats_;
};

}  // namespace erel::service
