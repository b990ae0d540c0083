#include "sim/sampling.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "arch/arch_state.hpp"
#include "arch/checkpoint.hpp"
#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/record.hpp"
#include "common/thread_pool.hpp"
#include "pipeline/core.hpp"
#include "sim/warm_state.hpp"

namespace erel::sim {

namespace {

/// The k-th draw of the splitmix64 stream seeded with `seed`: stateless,
/// so a unit's placement depends only on the seed and its interval index —
/// not on evaluation order or thread count.
std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  return splitmix64(seed + kGoldenGamma * k);
}

/// Outcome of one detailed window.
struct UnitResult {
  SimStats window;        // warmup + measured, as simulated
  StatRegistry registry;  // the window core's full registry
  std::uint64_t measured_insts = 0;
  std::uint64_t measured_cycles = 0;
  bool degenerate = false;  // committed work but zero measured cycles
};

/// What a unit's windows replay from: the architectural checkpoint and,
/// when the windows run on a pool, a frozen copy of the planner's warm
/// state. The unit's windows share one snapshot; whoever drops the last
/// reference (the last window to build its core, or the unit once it is
/// handed out or its CI round is measured) frees it.
struct UnitSnapshot {
  arch::Checkpoint ckpt;
  // Null when the windows run inline from the planner's live warm state.
  std::unique_ptr<const WarmState> warm;
};

/// One planned sampling unit: everything a worker needs to run its
/// detailed windows independently of every other unit, then each config's
/// outcome. Only the worker measuring (unit, config) touches that result
/// until the merge.
struct SamplingUnit {
  std::uint64_t icount = 0;  // dynamic instructions before the unit starts
  // Held by the unit until its windows are handed out (streamed) or its CI
  // round is measured; the handed-out windows hold it themselves.
  std::shared_ptr<const UnitSnapshot> snapshot;
  std::vector<std::optional<UnitResult>> results;  // per config; empty
                                                   // until measured
  // Windows measured; guarded by the run's window mutex.
  std::size_t windows_done = 0;
};

/// One window of a unit, replaying the unit's snapshot. Whoever claims it
/// first measures it: a pool worker, or the planner, which takes back its
/// own unclaimed windows rather than wait behind other tasks. The pool's
/// copy of a ticket that someone else claimed is a no-op.
struct Ticket {
  std::atomic<bool> claimed{false};
  std::size_t config = 0;
  SamplingUnit* unit = nullptr;
  std::shared_ptr<const UnitSnapshot> snapshot;  // moved out by the claimer
};

/// The planning pass's batched warming loop: fast-forwards the oracle to
/// `target` dynamic instructions, training predictors and caches off the
/// decoded step records (one MicroKind dispatch per instruction, I-cache
/// charged per fetch line — see sim/warm_state.hpp).
void run_warmed(arch::ArchState& master, WarmState& warm,
                std::uint64_t target) {
  while (!master.halted() && master.instructions_executed() < target)
    warm.observe(master.step());
}

/// Units are measured in batches of this size when confidence-driven
/// stopping is active; the CI is re-evaluated between batches. Constant (not
/// tied to the thread count) so the measured-unit set is identical at any
/// parallelism.
constexpr std::size_t kCiBatch = 8;

/// Mean, sample stddev (n-1) and standard error of per-sample CPI — the
/// single source of the estimator the delta method maps to IPC error bars
/// (stderr_ipc = stderr_cpi / mean^2), shared by the stopping rule and the
/// final report so they can never target different quantities.
struct CpiMoments {
  double mean = 0.0;
  double stddev = 0.0;  // 0 when n < 2
  double se = 0.0;      // 0 when n < 2
};

CpiMoments cpi_moments(const std::vector<SampleRecord>& samples) {
  CpiMoments m;
  const std::size_t n = samples.size();
  if (n == 0) return m;
  double sum = 0.0;
  for (const SampleRecord& s : samples) sum += s.cpi();
  m.mean = sum / static_cast<double>(n);
  if (n < 2) return m;
  double var = 0.0;
  for (const SampleRecord& s : samples) {
    const double d = s.cpi() - m.mean;
    var += d * d;
  }
  m.stddev = std::sqrt(var / static_cast<double>(n - 1));
  m.se = m.stddev / std::sqrt(static_cast<double>(n));
  return m;
}

double ci_halfwidth(const std::vector<SampleRecord>& samples) {
  const CpiMoments cpi = cpi_moments(samples);
  if (samples.size() < 2 || cpi.mean <= 0.0)
    return std::numeric_limits<double>::infinity();
  return 1.96 * cpi.se / (cpi.mean * cpi.mean);
}

/// Folds one config's window of a unit into that config's result. Callers
/// fold in interval order, so the output is a pure function of (config,
/// program, seed), never of scheduling. Every window merges its whole
/// StatRegistry (counters sum, occupancy integrals sum, channels append),
/// so sharded and serial runs agree on every metric.
void fold(SampledStats& out, std::uint64_t icount, const UnitResult& r) {
  out.registry.merge_from(r.registry);
  out.detailed_instructions += r.window.committed;
  if (r.degenerate) {
    ++out.degenerate_windows;
  } else if (r.measured_insts > 0) {
    out.samples.push_back({icount, r.measured_insts, r.measured_cycles});
    out.measured_instructions += r.measured_insts;
  }
}

/// Materializes the `measured` view and the whole-program estimate with
/// its error bars from the folded windows and `total_instructions`.
void finish(SampledStats& out) {
  out.measured = materialize_sim_stats(out.registry);
  const std::size_t n = out.samples.size();
  if (n > 0) {
    const CpiMoments cpi = cpi_moments(out.samples);
    out.cpi_mean = cpi.mean;
    out.cpi_stddev = cpi.stddev;
    out.cpi_stderr = cpi.se;
    double ipc_sum = 0.0;
    for (const SampleRecord& s : out.samples) ipc_sum += s.ipc();
    out.ipc_mean = ipc_sum / static_cast<double>(n);
    double ipc_var = 0.0;
    for (const SampleRecord& s : out.samples) {
      const double di = s.ipc() - out.ipc_mean;
      ipc_var += di * di;
    }
    if (n > 1) {
      out.ipc_stddev = std::sqrt(ipc_var / static_cast<double>(n - 1));
      // Delta method: the error bar is centered on estimate.ipc().
      out.ipc_stderr = out.cpi_stderr / (out.cpi_mean * out.cpi_mean);
      out.ipc_ci95 = 1.96 * out.ipc_stderr;
    }
    out.estimate.cycles = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(out.total_instructions) *
                     out.cpi_mean));
  } else if (out.measured.committed > 0) {
    // Program ended inside the first warm-up window: no clean sample exists,
    // so fall back to the CPI of whatever detailed work ran rather than
    // reporting an IPC of zero.
    const double fallback_cpi = static_cast<double>(out.measured.cycles) /
                                static_cast<double>(out.measured.committed);
    out.estimate.cycles = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(out.total_instructions) * fallback_cpi));
  }
}

// Single enumeration of every result-affecting SamplingConfig field, shared
// by the canonical serializer and its parser. `threads` is absent by design
// (wall-clock only): the daemon runs every sampled cell at the default
// threads = 1, one cell per worker. The two SamplingConfig constants and
// the one-valued placement have no line: no config can differ in them.
template <class Sampling, class Fn>
void canonical_fields(Sampling& sampling, Fn&& f) {
  f("sampling.period", sampling.period);
  f("sampling.warmup", sampling.warmup);
  f("sampling.detail", sampling.detail);
  f("sampling.seed", sampling.seed);
  // target_ci is a double; its exact bit pattern ("%a") rather than a
  // rounded decimal, so equal configs always hash equally.
  f("sampling.target_ci", record::hexfloat(sampling.target_ci));
}

}  // namespace

bool valid_sampling(const SamplingConfig& sampling) {
  return sampling.detail > 0 && sampling.warmup < sampling.period &&
         sampling.detail < sampling.period - sampling.warmup &&
         std::isfinite(sampling.target_ci) && sampling.target_ci >= 0.0;
}

void append_canonical_fields(const SamplingConfig& sampling, std::string& out) {
  canonical_fields(sampling, record::Writer(out, '='));
}

std::optional<SamplingConfig> sampling_from_canonical_fields(
    const record::FieldMap& fields) {
  SamplingConfig sampling;
  record::Reader read(fields);
  canonical_fields(sampling, read);
  // The SampledSimulator constructor checks the same predicate; refusing
  // here makes a malformed request an error reply, not a daemon abort.
  if (!read.complete() || !valid_sampling(sampling)) return std::nullopt;
  return sampling;
}

bool same_plan(const SimConfig& a, const SimConfig& b) {
  return a.ghr_bits == b.ghr_bits && a.memory == b.memory &&
         a.fast_path == b.fast_path;
}

SampledSimulator::SampledSimulator(SimConfig config, SamplingConfig sampling)
    : SampledSimulator(std::vector<SimConfig>{std::move(config)}, sampling) {}

SampledSimulator::SampledSimulator(std::vector<SimConfig> configs,
                                   SamplingConfig sampling)
    : configs_(std::move(configs)), sampling_(sampling) {
  EREL_CHECK(valid_sampling(sampling_), "invalid sampling: period ",
             sampling_.period, ", warmup ", sampling_.warmup, ", detail ",
             sampling_.detail, ", target_ci ", sampling_.target_ci,
             " (need detail > 0, warmup + detail < period, target_ci "
             "finite and >= 0)");
  EREL_CHECK(!configs_.empty(), "a plan group needs at least one config");
  for (const SimConfig& config : configs_)
    EREL_CHECK(same_plan(config, configs_.front()),
               "the configs of a plan group must share ghr_bits, memory and "
               "fast_path");
}

SampledStats SampledSimulator::run(const arch::Program& program,
                                   const std::vector<ProbeSpec>& probes)
    const {
  EREL_CHECK(configs_.size() == 1, "run() measures one config; this group "
             "has ", configs_.size(), " (use run_group)");
  return std::move(run_group(program, {probes}).front());
}

std::vector<SampledStats> SampledSimulator::run_group(
    const arch::Program& program,
    const std::vector<std::vector<ProbeSpec>>& probes, ThreadPool* pool)
    const {
  const std::size_t n_configs = configs_.size();
  EREL_CHECK(probes.size() == n_configs, "run_group: ", probes.size(),
             " probe lists for ", n_configs, " configs");
  const std::uint64_t window = sampling_.warmup + sampling_.detail;
  const std::uint64_t slack = sampling_.period - window;  // ctor: period>window

  // Start of unit k: uniform within [k*period, (k+1)*period - window], so
  // consecutive windows can never overlap.
  const auto unit_start = [&](std::uint64_t k) -> std::uint64_t {
    return k * sampling_.period + mix(sampling_.seed, k) % (slack + 1);
  };

  // One decode of the static program shared by the planning oracle and
  // every measurement window's core (each window otherwise re-decodes the
  // whole image). Null when the fast path is configured off. Every config
  // of the group agrees on fast_path, ghr_bits and memory, so the first
  // one plans for all of them.
  const SimConfig& plan_config = configs_.front();
  const std::shared_ptr<const arch::DecodedProgram> decoded =
      plan_config.fast_path
          ? std::make_shared<const arch::DecodedProgram>(program)
          : nullptr;

  // Streamed: captured and not yet folded (interval order). Under
  // confidence-driven stopping: the whole plan. Element addresses stay put
  // while the planner appends and folds, so a worker holds its own unit
  // while the planner grows and shrinks the plan.
  std::deque<SamplingUnit> units;
  std::mutex mu;  // guards `unmeasured`, `offered` and units' windows_done
  std::condition_variable measured_cv;
  std::size_t unmeasured = 0;  // windows handed out, not yet measured
  std::deque<std::shared_ptr<Ticket>> offered;  // possibly still unclaimed

  // --- one detailed window ------------------------------------------------
  // Config c replays `unit` from `snap`'s checkpoint through a fresh
  // detailed core seeded from `warm`: `warmup` commits prime the pipeline,
  // then the measured span runs to warmup+detail (or HALT, or a run-control
  // limit). The outcome lands in unit.results[c]. The core copies the warm
  // state and the checkpoint pages, so this window drops its reference to
  // the snapshot as soon as the core is built (`warm` may point into it):
  // the last window of a unit frees it, and a running window holds one
  // copy of its warm state, not two.
  const auto measure = [&](std::size_t c, SamplingUnit& unit,
                           std::shared_ptr<const UnitSnapshot> snap,
                           const WarmState& warm) {
    SimConfig cfg = configs_[c];
    cfg.max_instructions = window;
    // The core scans the checkpoint's code image and drops the shared
    // decode when self-modifying stores have made it stale.
    pipeline::Core core(cfg, program, snap->ckpt, &warm, decoded);
    snap.reset();
    const std::vector<std::unique_ptr<Probe>> instances =
        core.attach_probes(probes[c]);
    while (!core.halted() && core.committed() < sampling_.warmup &&
           core.cycle() < cfg.max_cycles)
      core.tick();
    const std::uint64_t warm_cycles = core.cycle();
    const std::uint64_t warm_committed = core.committed();
    UnitResult& r = unit.results[c].emplace();
    r.window = core.run();
    r.registry = core.registry();
    r.measured_insts = r.window.committed - warm_committed;
    r.measured_cycles = r.window.cycles - warm_cycles;
    if (r.measured_insts > 0 && r.measured_cycles == 0) {
      // The warm-up loop ran into cfg.max_cycles: everything this window
      // committed was committed at the cycle limit, so its IPC would be
      // infinite. Keep the raw counters, drop the sample.
      r.degenerate = true;
      EREL_WARN("sampling unit at instruction ", unit.icount,
                " hit max_cycles during warm-up (", r.measured_insts,
                " insts, 0 measured cycles): sample dropped");
    }
  };

  // Confidence-driven stopping measures seeded-shuffled rounds of the whole
  // plan, so it plans everything first. Otherwise measurement is streamed:
  // each unit is measured as soon as the planning pass has captured it.
  // Without a pool (threads = 1) a streamed unit's windows run inline,
  // from the planner's live warm state. With one, the run's own (threads >
  // 1: the unit count is not known yet, so it is built now) or the
  // caller's, there is one schedule: the unit gets one frozen WarmState
  // copy, and each of its windows, streamed or in a CI round, is a ticket
  // on the pool that replays that copy.
  const bool ci_stopping = sampling_.target_ci > 0.0;
  std::optional<ThreadPool> own_pool;
  ThreadPool* shards = pool;
  if (shards == nullptr) {
    unsigned threads = sampling_.threads;
    if (threads == 0) threads = std::thread::hardware_concurrency();
    // 0 again: the pool resolves it the same way.
    if (threads > 1) shards = &own_pool.emplace(sampling_.threads);
  }
  // A handed-out unit holds its warm snapshot and checkpoint pages until
  // its last window is built. The planner plans on only while fewer than
  // this many windows are unmeasured, so peak memory is set by the pool
  // size, not by how far planning outruns measurement.
  const std::size_t max_unmeasured =
      shards != nullptr ? 2 * std::size_t{shards->size()} : 0;

  const auto run_ticket = [&](Ticket& ticket) {
    const WarmState& warm = *ticket.snapshot->warm;
    measure(ticket.config, *ticket.unit, std::move(ticket.snapshot), warm);
    // Notified under the lock: once the planner sees its last window
    // done it returns, and `mu` and `measured_cv` go with it.
    const std::lock_guard lock(mu);
    ++ticket.unit->windows_done;
    --unmeasured;
    measured_cv.notify_one();
  };
  // Hands out windows [0, count), window i being `window(i)` -> (config,
  // unit): each replays its unit's snapshot. Without a pool they wait for
  // this thread to claim them.
  const auto offer = [&](std::size_t count, const auto& window) {
    std::vector<std::shared_ptr<Ticket>> tickets;
    for (std::size_t i = 0; i < count; ++i) {
      auto ticket = std::make_shared<Ticket>();
      std::tie(ticket->config, ticket->unit) = window(i);
      ticket->snapshot = ticket->unit->snapshot;
      tickets.push_back(std::move(ticket));
    }
    {
      const std::lock_guard lock(mu);
      while (!offered.empty() && offered.front()->claimed) offered.pop_front();
      unmeasured += tickets.size();
      offered.insert(offered.end(), tickets.begin(), tickets.end());
    }
    if (shards == nullptr) return;
    for (std::shared_ptr<Ticket>& ticket : tickets) {
      shards->submit([&run_ticket, ticket = std::move(ticket)] {
        if (!ticket->claimed.exchange(true)) run_ticket(*ticket);
      });
    }
  };
  // Brings the unmeasured windows down to `keep`. With `claim`, this thread
  // first measures handed-out windows that no worker has claimed yet,
  // oldest first, so it never waits on a window queued behind other tasks
  // and planners running on the pool's own workers cannot deadlock; then
  // it waits for the claimed ones still running.
  const auto settle = [&](std::size_t keep, bool claim) {
    while (claim) {
      std::shared_ptr<Ticket> mine;
      {
        const std::lock_guard lock(mu);
        while (unmeasured > keep && !offered.empty() && mine == nullptr) {
          std::shared_ptr<Ticket> front = std::move(offered.front());
          offered.pop_front();
          if (!front->claimed.exchange(true)) mine = std::move(front);
        }
      }
      if (mine == nullptr) break;
      run_ticket(*mine);
    }
    std::unique_lock lock(mu);
    measured_cv.wait(lock, [&] { return unmeasured <= keep; });
  };

  std::vector<SampledStats> outs(n_configs);
  // Streamed measurement folds a unit into every config's result as soon
  // as all its windows are measured, so a unit's window results live only
  // while it is in flight. Before the planner plans the next unit it holds
  // the unmeasured windows under the bound: on a pool of its own it waits;
  // on the caller's pool, where it may be one of the workers, it measures
  // its own unclaimed windows instead.
  const auto fold_measured = [&] {
    if (shards != nullptr) settle(max_unmeasured - 1, !own_pool);
    std::size_t ready = 0;
    {
      const std::lock_guard lock(mu);
      while (ready < units.size() && units[ready].windows_done == n_configs)
        ++ready;
    }
    for (; ready > 0; --ready) {
      const SamplingUnit& unit = units.front();
      for (std::size_t c = 0; c < n_configs; ++c)
        fold(outs[c], unit.icount, *unit.results[c]);
      units.pop_front();
    }
  };

  // --- planning pass ------------------------------------------------------
  // One functional sweep over the whole program: fast-forward, warming the
  // predictors and caches, to each unit start, capture the architectural
  // checkpoint (plus a frozen copy of the warm state when the windows run
  // on a pool or in CI rounds), measure or hand out the unit's windows, and
  // keep going. After this pass the exact dynamic instruction count is
  // known.
  std::uint64_t units_planned = 0;
  std::uint64_t total_instructions = 0;
  bool halted = false;
  {
    arch::ArchState master(program, decoded.get());
    WarmState warm(plan_config);
    for (std::uint64_t k = 0; !master.halted(); ++k) {
      run_warmed(master, warm, unit_start(k));
      if (master.halted()) break;
      if (!ci_stopping) fold_measured();
      ++units_planned;
      SamplingUnit& unit = units.emplace_back();
      auto snap = std::make_shared<UnitSnapshot>();
      snap->ckpt = arch::capture(master);
      unit.icount = snap->ckpt.icount;
      unit.results.resize(n_configs);
      if (!ci_stopping && shards == nullptr) {
        for (std::size_t c = 0; c < n_configs; ++c)
          measure(c, unit, snap, warm);
        unit.windows_done = n_configs;
        continue;
      }
      snap->warm = std::make_unique<const WarmState>(warm);
      unit.snapshot = std::move(snap);
      if (ci_stopping) continue;
      offer(n_configs, [&unit](std::size_t c) { return std::pair{c, &unit}; });
      unit.snapshot.reset();
    }
    total_instructions = master.instructions_executed();
    halted = master.halted();
  }
  if (!ci_stopping) {
    settle(0, true);
    fold_measured();
  }

  // --- confidence-driven measurement --------------------------------------
  // A seeded shuffle of the plan, measured in batches, so every batch is an
  // unbiased spread over the whole program rather than its first intervals.
  // Each round hands out the next batch of every config that has not met
  // its target yet, all at once, and measures its unclaimed windows itself;
  // each config stops on its own CI, then folds its windows in interval
  // order. A config's measured set depends only on its own batches, never
  // on the others' or on the thread count. A unit is measured only in the
  // round its shuffled position falls in, so it drops its snapshot then.
  if (ci_stopping) {
    std::vector<std::size_t> order(units.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j =
          mix(sampling_.seed ^ 0xa5a5a5a5a5a5a5a5ull, i) % i;
      std::swap(order[i - 1], order[j]);
    }
    std::vector<std::size_t> active(n_configs);  // configs still measuring
    std::iota(active.begin(), active.end(), 0);
    // CI bookkeeping only, per config.
    std::vector<std::vector<SampleRecord>> scheduled(n_configs);
    for (std::size_t next = 0; !active.empty(); next += kCiBatch) {
      const std::size_t batch_end = std::min(next + kCiBatch, order.size());
      const std::size_t batch = batch_end - next;
      // Window i of the round: config active[i / batch], unit
      // order[next + i % batch].
      offer(batch * active.size(), [&](std::size_t i) {
        return std::pair{active[i / batch], &units[order[next + i % batch]]};
      });
      settle(0, true);
      for (std::size_t u = next; u < batch_end; ++u)
        units[order[u]].snapshot.reset();
      std::erase_if(active, [&](std::size_t c) {
        for (std::size_t u = next; u < batch_end; ++u) {
          const SamplingUnit& unit = units[order[u]];
          const UnitResult& r = *unit.results[c];
          if (r.measured_insts > 0 && !r.degenerate)
            scheduled[c].push_back(
                {unit.icount, r.measured_insts, r.measured_cycles});
        }
        return batch_end == order.size() ||
               ci_halfwidth(scheduled[c]) <= sampling_.target_ci;
      });
    }
    for (std::size_t c = 0; c < n_configs; ++c) {
      for (SamplingUnit& unit : units) {
        if (!unit.results[c]) continue;  // unmeasured (CI target met)
        fold(outs[c], unit.icount, *unit.results[c]);
        unit.results[c].reset();
      }
    }
  }

  for (SampledStats& out : outs) {
    out.total_instructions = total_instructions;
    out.estimate.committed = total_instructions;
    out.estimate.halted = halted;
    out.units_planned = units_planned;
    finish(out);
  }
  return outs;
}

std::string format_sampled_stats(const SampledStats& stats) {
  std::ostringstream os;
  char buf[128];
  os << "instructions (exact) " << stats.total_instructions << "\n";
  os << "samples              " << stats.samples.size() << " of "
     << stats.units_planned << " planned (" << stats.measured_instructions
     << " measured / " << stats.detailed_instructions
     << " detailed insts)\n";
  if (stats.degenerate_windows > 0)
    os << "degenerate windows   " << stats.degenerate_windows
       << " (dropped)\n";
  std::snprintf(buf, sizeof buf, "%.2f%%", 100.0 * stats.detail_fraction());
  os << "detail fraction      " << buf << "\n";
  if (stats.samples.size() > 1) {
    std::snprintf(buf, sizeof buf, "%.4f +/- %.4f (95%% CI), stddev %.4f",
                  stats.estimate.ipc(), stats.ipc_ci95, stats.ipc_stddev);
  } else {
    std::snprintf(buf, sizeof buf, "%.4f (n<2: no error bars)",
                  stats.estimate.ipc());
  }
  os << "IPC estimate         " << buf << "\n";
  os << "cycles (estimated)   " << stats.estimate.cycles << "\n";
  return os.str();
}

}  // namespace erel::sim
