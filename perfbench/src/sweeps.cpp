// fig11-full and fig11-sampled: the paper's Figure 11 register-file sweep,
// timed the way users run it (harness::Experiment::run on a 4-thread pool).
#include <memory>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "harness/experiment.hpp"
#include "workloads/workloads.hpp"

namespace erelbench {

namespace {

namespace h = erel::harness;
using erel::core::PolicyKind;

struct Totals {
  std::uint64_t committed = 0;
  std::uint64_t cycles = 0;
  std::uint64_t detailed = 0;
  std::uint64_t units = 0;
  std::vector<std::pair<std::string, double>> ipcs;  // (cell_key, IPC)
};

Totals check_entries(const std::vector<h::ExpEntry>& entries, Report& report) {
  Totals t;
  for (const h::ExpEntry& e : entries) {
    expect_cell(report, e.key.to_string(), e.stats.halted, e.stats.committed,
                e.ipc());
    t.committed += e.stats.committed;
    t.cycles += e.stats.cycles;
    t.detailed += e.sampled ? e.sampled->detailed_instructions : e.stats.committed;
    t.units += e.sampled ? e.sampled->units_planned : 0;
    t.ipcs.emplace_back(cell_key(e.key.workload, e.key.policy, e.key.phys),
                        e.ipc());
  }
  return t;
}

}  // namespace

void run_fig11(const Options& opts, bool sampled, Tracer& tracer,
               Report& report) {
  const std::vector<std::string> names =
      opts.smoke ? smoke_kernels() : kernel_names();
  const std::vector<PolicyKind> kinds =
      opts.smoke ? std::vector<PolicyKind>{PolicyKind::Extended} : policies();
  const std::vector<unsigned> sizes =
      opts.smoke ? std::vector<unsigned>{48}
                 : (sampled ? sampled_sizes() : full_sizes());
  h::Experiment sweep;
  sweep.workloads(names).policies(kinds).phys_regs(sizes);
  if (sampled) sweep.sampling(sweep_sampling(opts.seed));
  h::RunOptions run_opts;
  run_opts.threads = kThreads;
  const References refs = References::load(opts.reference);

  if (!tracer.enabled()) {
    const auto set_up = [&] {
      Tracer off(false);
      assemble_programs(names, off);
      return std::make_unique<erel::ThreadPool>(kThreads);
    };
    std::vector<double> setups;
    time_calls(kSetupReps, set_up, setups);
    const std::vector<double> walls = timed_passes(opts.seconds, 1, [&] {
      check_entries(sweep.run(run_opts).entries(), report);
    });
    time_calls(kSetupReps, set_up, setups);
    report.set("setup_s", median(setups));
    report_batch_walls(walls, report);
    return;
  }

  {
    const Span setup(tracer, "setup");
    assemble_programs(names, tracer);
    const erel::ThreadPool pool(kThreads);
  }
  report_setup_layers(tracer, report);

  // The user path, untraced, as the base of trace.overhead_pct.
  const Clock::time_point u0 = Clock::now();
  const h::ResultSet untraced = sweep.run(run_opts);
  const double wall_u = seconds_since(u0);

  // The same cells through run_one on a pool of the same size, one span
  // per cell.
  const std::vector<h::Experiment::Cell> cells = sweep.materialize();
  std::vector<h::RunResult> results(cells.size());
  std::vector<double> cell_s(cells.size());
  const Clock::time_point t0 = Clock::now();
  {
    const Span pass(tracer, "harness.sweep");
    erel::ThreadPool pool(kThreads);
    erel::parallel_for(pool, cells.size(), [&](std::size_t i) {
      const Span span(tracer, "harness.run_one", pass.id());
      const Clock::time_point c0 = Clock::now();
      results[i] = h::run_one(cells[i].spec);
      cell_s[i] = seconds_since(c0);
    });
  }
  const double wall_t = seconds_since(t0);

  std::vector<h::ExpEntry> entries;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    entries.push_back(h::ExpEntry{cells[i].key, results[i].stats,
                                  results[i].sampled, results[i].metrics});
    report.expect(untraced.contains(cells[i].key) &&
                      untraced.stats(cells[i].key).cycles == results[i].stats.cycles &&
                      untraced.stats(cells[i].key).committed ==
                          results[i].stats.committed,
                  cells[i].key.to_string() +
                      ": run_one and Experiment::run disagree");
  }
  const Totals t = check_entries(entries, report);
  report_model(report, t.committed, t.cycles, t.detailed, t.units);
  report_ipc_error(refs, t.ipcs, opts.smoke, report);
  report.set("pipeline.cell_s.p50", median(cell_s));
  report.set("pipeline.cell_s.max", percentile(cell_s, 1.0));
  report.set("harness.pool_idle_frac", 1.0 - sum(cell_s) / (wall_t * kThreads));
  report.set("trace.overhead_pct", 100.0 * (wall_t - wall_u) / wall_u);

  if (!sampled) {
    // Full-detail cells: every committed instruction went through the
    // pipeline, so host time per cell is pipeline time.
    double secs[2] = {0.0, 0.0};  // [is_fp]
    double insts[2] = {0.0, 0.0};
    double cycles = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const bool fp = is_fp_kernel(cells[i].key.workload);
      secs[fp] += cell_s[i];
      insts[fp] += static_cast<double>(results[i].stats.committed);
      cycles += static_cast<double>(results[i].stats.cycles);
    }
    report.set("pipeline.kips.int", ratio(insts[0], secs[0]) / 1e3);
    report.set("pipeline.kips.fp", ratio(insts[1], secs[1]) / 1e3);
    report.set("pipeline.ns_per_cycle", 1e9 * ratio(sum(cell_s), cycles));
    return;
  }

  // One cell per kernel replayed stage by stage (the sampler's own stages
  // have no public timing); its records must match run_one's bit for bit.
  std::vector<Replay> replays;
  const Span replay_span(tracer, "sim.replay");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].key.policy != kinds.back() || cells[i].key.phys != sizes.front())
      continue;
    const erel::arch::Program program =
        erel::workloads::assemble_workload(cells[i].spec.workload);
    Replay r = replay_sampled(program, cells[i].spec.config,
                              *cells[i].spec.sampling, {1}, tracer,
                              replay_span.id())
                   .front();
    r.is_fp = is_fp_kernel(cells[i].key.workload);
    report.expect(results[i].sampled &&
                      r.samples == results[i].sampled->samples &&
                      r.total_instructions ==
                          results[i].sampled->total_instructions,
                  cells[i].key.to_string() +
                      ": replayed sampling records differ from run_one's");
    replays.push_back(std::move(r));
  }
  report_replays(replays, 1, tracer, report);
}

}  // namespace erelbench
