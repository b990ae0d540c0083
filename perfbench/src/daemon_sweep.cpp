// daemon-sweep: an in-process ExperimentDaemon on loopback with four
// workers and a fresh store, driven closed-loop through one RemoteBackend
// connection. A cold pass simulates every cell (each sent twice back to
// back, so the second joins the first); warm passes are then served from
// the store. The only workload where net, service and the harness cache do
// most of the work.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "harness/experiment.hpp"
#include "harness/fingerprint.hpp"
#include "harness/remote.hpp"
#include "harness/result_cache.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

namespace erelbench {

namespace {

namespace fs = std::filesystem;
namespace h = erel::harness;
namespace svc = erel::service;
using erel::core::PolicyKind;

constexpr std::size_t kColdCellsOutstanding = 4;  // two requests each
constexpr std::size_t kWarmRequestsOutstanding = 4;
constexpr unsigned kStatsRoundTrips = 200;
constexpr unsigned kColdPasses = 3;
/// A daemon serving on its own loop thread for the object's lifetime.
class LoopbackDaemon {
 public:
  explicit LoopbackDaemon(const std::string& store_dir)
      : daemon_(options(store_dir)) {
    if (!daemon_.valid()) {
      std::fprintf(stderr, "erelbench: daemon cannot listen: %s\n",
                   daemon_.error().c_str());
      std::exit(3);
    }
    loop_ = std::thread([this] { daemon_.run(); });
  }
  ~LoopbackDaemon() {
    daemon_.stop();
    loop_.join();
  }
  LoopbackDaemon(const LoopbackDaemon&) = delete;
  LoopbackDaemon& operator=(const LoopbackDaemon&) = delete;

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(daemon_.port());
  }
  [[nodiscard]] svc::DaemonStats stats() const { return daemon_.stats(); }

 private:
  static svc::ExperimentDaemon::Options options(const std::string& dir) {
    svc::ExperimentDaemon::Options o;
    o.cache_dir = dir;
    o.workers = kThreads;
    return o;
  }

  svc::ExperimentDaemon daemon_;
  std::thread loop_;  // declared last: joins before daemon_ goes away
};

struct Cell {
  h::Experiment::Cell cell;
  std::string fp;  // fingerprint hex
};

/// One request in flight; `span` is 0 when untraced.
struct Pending {
  std::size_t cell = 0;
  std::uint64_t wire = 0;  // 0: the dispatch itself failed
  Clock::time_point sent;
  std::uint64_t span = 0;
};

Pending send(h::RemoteBackend& backend, const std::vector<Cell>& cells,
             std::size_t i, Tracer& tracer, const char* span_name) {
  Pending p{i, 0, Clock::now(), tracer.open(span_name)};
  p.wire = backend.dispatch(cells[i].cell.key, cells[i].cell.spec, cells[i].fp)
               .value_or(0);
  return p;
}

/// The entry text for `p`, validated by the backend; nullopt on failure.
std::optional<std::string> receive(h::RemoteBackend& backend,
                                   const std::vector<Cell>& cells,
                                   const Pending& p, Tracer& tracer) {
  std::optional<std::string> text;
  if (p.wire != 0) {
    std::string raw;
    if (backend.await(p.wire, cells[p.cell].cell.key, cells[p.cell].fp, &raw,
                      nullptr))
      text = std::move(raw);
  }
  tracer.close(p.span);
  return text;
}

}  // namespace

void run_daemon_sweep(const Options& opts, Tracer& tracer, Report& report) {
  const Clock::time_point run_start = Clock::now();
  const std::vector<std::string> names =
      opts.smoke ? smoke_kernels() : kernel_names();
  h::Experiment sweep;
  sweep.workloads(names)
      .policies(opts.smoke ? std::vector<PolicyKind>{PolicyKind::Extended}
                           : policies())
      .phys_regs(opts.smoke ? std::vector<unsigned>{48} : daemon_sizes())
      .sampling(sweep_sampling(opts.seed));
  std::vector<Cell> cells;
  for (h::Experiment::Cell& c : sweep.materialize()) {
    std::string fp;
    {
      const Span span(tracer, "harness.fingerprint");
      fp = h::fingerprint_cell(c.spec.workload, c.spec.config, c.spec.sampling)
               .hex();
    }
    cells.push_back(Cell{std::move(c), std::move(fp)});
  }
  const fs::path scratch =
      fs::path(opts.scratch_dir) / ("daemon-" + std::to_string(::getpid()));
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  unsigned rep = 0;
  const auto set_up = [&] {
    Tracer off(false);
    assemble_programs(names, off);
    auto daemon = std::make_unique<LoopbackDaemon>(
        (scratch / ("setup-" + std::to_string(rep++))).string());
    auto backend = std::make_unique<h::RemoteBackend>(daemon->endpoint());
    report.expect(backend->connect(), "connect to the daemon");
    // Members destroy in reverse: the backend disconnects first.
    return std::make_pair(std::move(daemon), std::move(backend));
  };
  std::vector<double> setups;
  if (tracer.enabled()) {
    assemble_programs(names, tracer);
    report_setup_layers(tracer, report);
  } else {
    time_calls(kSetupReps, set_up, setups);
  }

  // Cold passes, each on a fresh daemon and store: at most
  // kColdCellsOutstanding cells in flight. The last daemon serves the warm
  // passes.
  std::vector<std::string> cold(cells.size());
  std::vector<double> cold_walls;
  std::vector<double> latency_ms;  // warm requests
  std::string store;
  std::unique_ptr<LoopbackDaemon> daemon;
  std::unique_ptr<h::RemoteBackend> backend;
  for (unsigned k = 0; k < kColdPasses; ++k) {
    backend.reset();
    daemon.reset();
    store = (scratch / ("store-" + std::to_string(k))).string();
    daemon = std::make_unique<LoopbackDaemon>(store);
    backend = std::make_unique<h::RemoteBackend>(daemon->endpoint());
    report.expect(backend->connect(), "connect to the daemon");
    const Clock::time_point c0 = Clock::now();
    const Span pass(tracer, "service.cold_pass");
    std::deque<std::pair<Pending, Pending>> inflight;
    std::size_t next = 0;
    while (next < cells.size() || !inflight.empty()) {
      while (inflight.size() < kColdCellsOutstanding && next < cells.size()) {
        Pending first = send(*backend, cells, next, tracer, "service.cold_cell");
        Pending again = send(*backend, cells, next, tracer, "service.cold_again");
        inflight.emplace_back(first, again);
        ++next;
      }
      const auto [first, again] = inflight.front();
      inflight.pop_front();
      const std::optional<std::string> a = receive(*backend, cells, first, tracer);
      const std::optional<std::string> b = receive(*backend, cells, again, tracer);
      report.expect(a && b && *a == *b && (k == 0 || *a == cold[first.cell]),
                    cells[first.cell].cell.key.to_string() +
                        ": cold cell not served, or served different entries");
      if (a && k == 0) cold[first.cell] = *a;
    }
    cold_walls.push_back(seconds_since(c0));
    report.expect(daemon->stats().simulated == cells.size(),
                  "the daemon did not simulate each distinct cold cell once");
  }

  // Warm passes: closed loop, at most kWarmRequestsOutstanding requests.
  const auto warm_pass = [&](Tracer& tr) {
    std::deque<Pending> inflight;
    std::size_t next = 0;
    while (next < cells.size() || !inflight.empty()) {
      while (inflight.size() < kWarmRequestsOutstanding && next < cells.size())
        inflight.push_back(send(*backend, cells, next++, tr, "service.request"));
      const Pending p = inflight.front();
      inflight.pop_front();
      const std::optional<std::string> text = receive(*backend, cells, p, tr);
      latency_ms.push_back(1e3 * seconds_since(p.sent));
      report.expect(text && *text == cold[p.cell],
                    "warm entry missing or different from the cold one");
    }
  };
  Tracer off(false);
  const double left = std::max(opts.seconds - seconds_since(run_start), 0.0);
  if (!tracer.enabled()) {
    timed_passes(left, 1, [&] { warm_pass(off); });
    report.set("wall_s", median(cold_walls));
    report.set("cell_ms.p50", median(latency_ms));
  } else {
    // Half the time untraced, half traced: the difference is the cost
    // of tracing.
    const double untraced =
        median(timed_passes(left / 2, 1, [&] { warm_pass(off); }));
    const double traced =
        median(timed_passes(left / 2, 1, [&] { warm_pass(tracer); }));
    report.set("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);

    // Store IO through the harness cache functions, entry by entry.
    const std::string written = (scratch / "written").string();
    fs::create_directories(written);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      {
        const Span span(tracer, "harness.cache_read");
        report.expect(h::load_cache_entry(h::cache_entry_path(store, cells[i].fp),
                                          cells[i].fp, cells[i].cell.key)
                          .has_value(),
                      "a stored entry failed to load");
      }
      const Span span(tracer, "harness.cache_write");
      h::save_cache_entry(h::cache_entry_path(written, cells[i].fp), cold[i]);
    }

    // Round trips with no store and no simulation behind them.
    svc::RemoteClient client;
    report.expect(client.connect(daemon->endpoint()), "stats client connects");
    for (unsigned k = 0; k < kStatsRoundTrips; ++k) {
      const Span span(tracer, "service.stats");
      report.expect(client.stats().has_value(), "stats round trip");
    }

    const svc::DaemonStats stats = daemon->stats();
    report.set("service.simulated", static_cast<double>(stats.simulated));
    report.set("service.cache_hits", static_cast<double>(stats.cache_hits));
    report.set("service.deduped", static_cast<double>(stats.deduped));
    report.set("service.busy", static_cast<double>(stats.busy));
    report.set("service.errors", static_cast<double>(stats.errors));
    report.set("service.cold_cell_ms.p50",
               1e3 * median(tracer.seconds("service.cold_cell")));
    // Host wake-up stalls set this tail, so it has no run-to-run bound and
    // is not an end-to-end metric.
    report.set("service.warm_ms.p99", percentile(latency_ms, 0.99));
    report.set("service.stats_rtt_us.p50",
               1e6 * median(tracer.seconds("service.stats")));
    report.set("harness.fingerprint_us",
               1e6 * median(tracer.seconds("harness.fingerprint")));
    report.set("harness.cache_read_us",
               1e6 * median(tracer.seconds("harness.cache_read")));
    report.set("harness.cache_write_us",
               1e6 * median(tracer.seconds("harness.cache_write")));
  }
  backend.reset();
  daemon.reset();

  // Every daemon-served entry must equal a local run_one of the same cell.
  std::vector<h::RunResult> local(cells.size());
  std::vector<double> local_s(cells.size());
  const Clock::time_point l0 = Clock::now();
  {
    const Span pass(tracer, "harness.local_sweep");
    erel::ThreadPool pool(kThreads);
    erel::parallel_for(pool, cells.size(), [&](std::size_t i) {
      const Span span(tracer, "harness.run_one", pass.id());
      const Clock::time_point t0 = Clock::now();
      local[i] = h::run_one(cells[i].cell.spec);
      local_s[i] = seconds_since(t0);
    });
  }
  const double local_wall = seconds_since(l0);
  std::uint64_t committed = 0;
  std::uint64_t cycles = 0;
  std::uint64_t detailed = 0;
  std::uint64_t units = 0;
  std::vector<std::pair<std::string, double>> ipcs;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const h::ExpKey& key = cells[i].cell.key;
    const std::optional<h::ExpEntry> served =
        h::parse_entry(cold[i], cells[i].fp, key);
    const h::ExpEntry mine{key, local[i].stats, local[i].sampled,
                           local[i].metrics};
    report.expect(served && h::serialize_entry(*served, cells[i].fp) ==
                                h::serialize_entry(mine, cells[i].fp),
                  key.to_string() + ": daemon entry differs from a local run_one");
    if (!served) continue;
    expect_cell(report, key.to_string(), served->stats.halted,
                served->stats.committed, served->ipc());
    committed += served->stats.committed;
    cycles += served->stats.cycles;
    if (served->sampled) {
      detailed += served->sampled->detailed_instructions;
      units += served->sampled->units_planned;
    }
    ipcs.emplace_back(cell_key(key.workload, key.policy, key.phys),
                      served->ipc());
  }
  if (!tracer.enabled()) {
    time_calls(kSetupReps, set_up, setups);
    report.set("setup_s", median(setups));
  } else {
    report_model(report, committed, cycles, detailed, units);
    report_ipc_error(References::load(opts.reference), ipcs, opts.smoke, report);
    report.set("pipeline.cell_s.p50", median(local_s));
    report.set("pipeline.cell_s.max", percentile(local_s, 1.0));
    report.set("harness.pool_idle_frac",
               1.0 - sum(local_s) / (local_wall * kThreads));
  }
  fs::remove_all(scratch);
}

}  // namespace erelbench
