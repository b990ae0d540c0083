#include "service/daemon.hpp"

#include <filesystem>
#include <utility>

#include "common/log.hpp"
#include "harness/fingerprint.hpp"
#include "harness/harness.hpp"
#include "harness/result_cache.hpp"
#include "workloads/workloads.hpp"

namespace erel::service {

ExperimentDaemon::ExperimentDaemon(const Options& opts)
    : opts_(opts), server_(*this, opts.host, opts.port), pool_(opts.workers) {
  // Every simulated cell lands in the store, including one whose
  // requesters all left while it ran, so a daemon without one cannot serve.
  if (opts_.cache_dir.empty()) {
    error_ = "no cache dir given";
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts_.cache_dir, ec);
  if (ec)
    error_ = "cannot create cache dir '" + opts_.cache_dir +
             "': " + ec.message();
}

DaemonStats ExperimentDaemon::stats() const {
  DaemonStats stats;
  {
    const std::scoped_lock lock(mu_);
    stats = stats_;
  }
  stats.dropped_clients = server_.overflow_drops();
  return stats;
}

void ExperimentDaemon::run() {
  EREL_CHECK(valid(), "ereld: cannot serve: ", error());
  server_.run();
  // Let queued/running simulations finish (their completion closures were
  // posted after stop and are dropped — the disk cache still gets the
  // entries, so the work is not lost).
  pool_.wait_idle();
}

// ---- loop-thread frame handling ----------------------------------------

void ExperimentDaemon::on_connect(std::uint64_t client) {
  server_.send(client,
               net::Frame{static_cast<std::uint8_t>(MsgType::kHello),
                          "ereld " + std::to_string(kProtocolVersion)});
}

void ExperimentDaemon::on_frame(std::uint64_t client, net::Frame frame) {
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kRunCell:
      handle_run_cell(client, frame);
      return;
    case MsgType::kStats:
      server_.send(client,
                   net::Frame{static_cast<std::uint8_t>(MsgType::kStatsReply),
                              encode_stats(stats())});
      return;
    case MsgType::kShutdown:
      server_.stop();
      return;
    default:
      send_error(client, 0,
                 "unexpected message type " +
                     std::string(msg_type_name(
                         static_cast<MsgType>(frame.type))) +
                     " (" + std::to_string(unsigned{frame.type}) + ")");
      server_.close_client(client);
      return;
  }
}

void ExperimentDaemon::on_disconnect(std::uint64_t client) {
  const std::scoped_lock lock(mu_);
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    InFlight& cell = *it->second;
    std::erase_if(cell.waiters,
                  [client](const Waiter& w) { return w.client == client; });
    if (!cell.waiters.empty() || cell.running) {
      // A running cell finishes into the store even with no one waiting.
      ++it;
      continue;
    }
    // Queued and wanted by no one: erase now; the pool closure finds
    // nothing and no-ops.
    --stats_.inflight;
    ++stats_.cancelled;
    it = inflight_.erase(it);
  }
}

void ExperimentDaemon::send_error(std::uint64_t client, std::uint64_t id,
                                  const std::string& message) {
  {
    const std::scoped_lock lock(mu_);
    ++stats_.errors;
  }
  server_.send(client, net::Frame{static_cast<std::uint8_t>(MsgType::kError),
                                  encode_error(ErrorMsg{id, message})});
}

void ExperimentDaemon::handle_run_cell(std::uint64_t client,
                                       const net::Frame& frame) {
  std::optional<CellRequest> request = decode_cell_request(frame.payload);
  if (!request) {
    send_error(client, 0, "malformed cell request");
    return;
  }
  // Wire requests carry probe names only, so a cell naming one the probe
  // registry does not know is refused — never simulated without its probe,
  // which would poison the shared cache under the probed fingerprint.
  for (const std::string& name : request->probe_names) {
    if (harness::make_probe(name) == nullptr) {
      send_error(client, request->id, "unknown probe '" + name + "'");
      return;
    }
  }
  if (workloads::find_workload(request->workload) == nullptr) {
    send_error(client, request->id,
               "unknown workload '" + request->workload + "'");
    return;
  }
  // A client and daemon built from diverged sources must never share
  // results: recompute the fingerprint from the decoded cell and refuse on
  // mismatch (the canonical renderings, workload generators, or format
  // version differ).
  const std::string fp_hex =
      harness::fingerprint_cell(request->workload, request->config,
                                request->sampling, request->probe_names)
          .hex();
  if (fp_hex != request->fingerprint_hex) {
    send_error(client, request->id,
               "fingerprint mismatch: client " + request->fingerprint_hex +
                   " vs daemon " + fp_hex +
                   " (client and daemon builds have diverged)");
    return;
  }

  // Disk first: a cached cell costs one file read.
  std::string text;
  bool quarantined = false;
  bool hit = false;
  {
    const std::scoped_lock lock(store_mu_);
    hit = harness::load_cache_entry(
              harness::cache_entry_path(opts_.cache_dir, fp_hex), fp_hex,
              request->key, &text, &quarantined)
              .has_value();
  }
  {
    const std::scoped_lock lock(mu_);
    ++stats_.requests;
    if (quarantined) ++stats_.quarantined;
    if (hit) ++stats_.cache_hits;
  }
  if (hit) {
    server_.send(client,
                 net::Frame{static_cast<std::uint8_t>(MsgType::kResult),
                            encode_result(ResultMsg{request->id,
                                                    /*cached=*/true,
                                                    std::move(text)})});
    return;
  }

  const std::scoped_lock lock(mu_);
  if (const auto it = inflight_.find(fp_hex); it != inflight_.end()) {
    // Same fingerprint already queued or simulating: join its completion.
    it->second->waiters.push_back(Waiter{client, request->id});
    ++stats_.deduped;
    return;
  }
  auto cell = std::make_shared<InFlight>();
  cell->request = std::move(*request);
  cell->waiters.push_back(Waiter{client, cell->request.id});
  inflight_.emplace(fp_hex, std::move(cell));
  ++stats_.inflight;
  pool_.submit([this, fp_hex] { run_cell(fp_hex); });
}

// ---- worker thread ------------------------------------------------------

void ExperimentDaemon::run_cell(const std::string& fp_hex) {
  CellRequest request;
  {
    const std::scoped_lock lock(mu_);
    const auto it = inflight_.find(fp_hex);
    // Reaped while queued; or reaped, requested again and already picked
    // up by this closure's successor in the queue.
    if (it == inflight_.end() || it->second->running) return;
    it->second->running = true;
    request = it->second->request;
  }

  const harness::RunResult result = harness::run_one(
      {request.workload, request.config, request.sampling,
       request.probe_names});
  harness::ExpEntry entry{request.key, result.stats, result.sampled,
                          result.metrics, /*from_cache=*/false};
  std::string text = harness::serialize_entry(entry, fp_hex);
  {
    const std::scoped_lock lock(store_mu_);
    harness::save_cache_entry(
        harness::cache_entry_path(opts_.cache_dir, fp_hex), text);
  }
  server_.post([this, fp_hex, text = std::move(text)] {
    complete_cell(fp_hex, text);
  });
}

// ---- loop thread: completion --------------------------------------------

void ExperimentDaemon::complete_cell(const std::string& fp_hex,
                                     const std::string& entry_text) {
  std::shared_ptr<InFlight> cell;
  {
    const std::scoped_lock lock(mu_);
    const auto it = inflight_.find(fp_hex);
    if (it == inflight_.end()) return;
    cell = std::move(it->second);
    inflight_.erase(it);
    ++stats_.simulated;
    --stats_.inflight;
  }
  for (const Waiter& waiter : cell->waiters) {
    server_.send(waiter.client,
                 net::Frame{static_cast<std::uint8_t>(MsgType::kResult),
                            encode_result(ResultMsg{waiter.request_id,
                                                    /*cached=*/false,
                                                    entry_text})});
  }
}

}  // namespace erel::service
