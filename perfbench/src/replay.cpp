// A sampled run replayed from erel's public calls, stage by stage, so the
// traced runs can time planning, checkpointing, warm-state copies and the
// detailed windows separately. It follows sim::SampledSimulator::run for
// the configurations the benchmark uses (stratified placement, functional
// warming, no sample cap, no confidence-driven stopping); the traced runs
// check that its SampleRecords equal the sampler's bit for bit, so any
// divergence from the sampler is caught as a failure.
#include <memory>

#include "arch/arch_state.hpp"
#include "arch/checkpoint.hpp"
#include "arch/decoded_program.hpp"
#include "bench.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "pipeline/core.hpp"
#include "sim/warm_state.hpp"

namespace erelbench {

namespace {

using erel::sim::SamplingConfig;
using erel::sim::SimConfig;

/// The sampler's stratified draw: splitmix64 of (seed, interval).
std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Unit {
  erel::arch::Checkpoint ckpt;
  std::unique_ptr<const erel::sim::WarmState> warm;
  bool decoded_ok = true;  // no store into the code image before this unit
};

struct Window {
  std::uint64_t committed = 0;  // warmup + measured
  std::uint64_t cycles = 0;
  std::uint64_t measured_insts = 0;
  std::uint64_t measured_cycles = 0;
  double seconds = 0.0;
};

Window run_window(const Unit& unit, const erel::arch::Program& program,
                  const SimConfig& config, const SamplingConfig& sampling,
                  const std::shared_ptr<const erel::arch::DecodedProgram>& decoded) {
  SimConfig cfg = config;
  cfg.max_instructions = sampling.warmup + sampling.detail;
  if (!unit.decoded_ok) cfg.fast_path = false;
  const Clock::time_point t0 = Clock::now();
  erel::pipeline::Core core(cfg, program, unit.ckpt, unit.warm.get(),
                            unit.decoded_ok ? decoded : nullptr);
  while (!core.halted() && core.committed() < sampling.warmup &&
         core.cycle() < cfg.max_cycles)
    core.tick();
  const std::uint64_t warm_cycles = core.cycle();
  const std::uint64_t warm_committed = core.committed();
  const erel::sim::SimStats stats = core.run();
  Window w;
  w.committed = stats.committed;
  w.cycles = stats.cycles;
  w.measured_insts = stats.committed - warm_committed;
  w.measured_cycles = stats.cycles - warm_cycles;
  w.seconds = seconds_since(t0);
  return w;
}

}  // namespace

std::vector<Replay> replay_sampled(const erel::arch::Program& program,
                                   const SimConfig& config,
                                   const SamplingConfig& sampling,
                                   const std::vector<unsigned>& shard_threads,
                                   Tracer& tracer, std::uint64_t parent) {
  EREL_CHECK(sampling.placement == erel::sim::Placement::kStratified &&
                 sampling.functional_warming && sampling.max_samples == 0 &&
                 sampling.target_ci == 0.0,
             "the replay covers the benchmark's sampling configurations only");
  const std::uint64_t slack =
      sampling.period - (sampling.warmup + sampling.detail);
  const std::shared_ptr<const erel::arch::DecodedProgram> decoded =
      config.fast_path
          ? std::make_shared<const erel::arch::DecodedProgram>(program)
          : nullptr;

  // Planning: one functional pass, warming predictors and caches, with a
  // checkpoint and a warm-state copy at each unit start.
  Replay planned;
  std::vector<Unit> units;
  const Clock::time_point p0 = Clock::now();
  {
    const Span plan(tracer, "sim.plan", parent);
    erel::arch::ArchState master(program, decoded.get());
    erel::sim::WarmState warm(config);
    for (std::uint64_t k = 0; !master.halted(); ++k) {
      const std::uint64_t start =
          k * sampling.period + mix(sampling.seed, k) % (slack + 1);
      {
        const Span span(tracer, "sim.warm", plan.id());
        const std::uint64_t before = master.instructions_executed();
        while (!master.halted() && master.instructions_executed() < start)
          warm.observe(master.step());
        planned.warmed += master.instructions_executed() - before;
      }
      if (master.halted()) break;
      Unit& unit = units.emplace_back();
      {
        const Span span(tracer, "arch.capture", plan.id());
        unit.ckpt = erel::arch::capture(master);
      }
      unit.decoded_ok = !master.code_dirtied();
      const Span span(tracer, "sim.warm_copy", plan.id());
      unit.warm = std::make_unique<const erel::sim::WarmState>(warm);
    }
    planned.total_instructions = master.instructions_executed();
  }
  planned.plan_s = seconds_since(p0);

  // Measurement: each unit through its own detailed core, sharded.
  Tracer quiet(false);
  std::vector<Replay> out;
  for (std::size_t j = 0; j < shard_threads.size(); ++j) {
    Tracer& tr = j == 0 ? tracer : quiet;
    std::vector<Window> windows(units.size());
    const auto measure = [&](std::size_t u) {
      const Span span(tr, "sim.window", parent);
      windows[u] = run_window(units[u], program, config, sampling, decoded);
    };
    const Clock::time_point m0 = Clock::now();
    if (shard_threads[j] > 1) {
      erel::ThreadPool pool(shard_threads[j]);
      erel::parallel_for(pool, units.size(), measure);
    } else {
      for (std::size_t u = 0; u < units.size(); ++u) measure(u);
    }
    Replay r = planned;
    r.measure_wall_s = seconds_since(m0);
    for (std::size_t u = 0; u < units.size(); ++u) {
      const Window& w = windows[u];
      r.window_committed += w.committed;
      r.window_cycles += w.cycles;
      r.window_s += w.seconds;
      // As the sampler does: windows that measured nothing, or measured
      // instructions in zero cycles, are dropped.
      if (w.measured_insts > 0 && w.measured_cycles > 0)
        r.samples.push_back(
            {units[u].ckpt.icount, w.measured_insts, w.measured_cycles});
    }
    out.push_back(std::move(r));
  }
  return out;
}

void report_replays(const std::vector<Replay>& replays, unsigned threads,
                    const Tracer& tracer, Report& report) {
  double plan_s = 0.0;
  double window_s = 0.0;
  double kips_s[2] = {0.0, 0.0};  // [is_fp]
  double kips_insts[2] = {0.0, 0.0};
  double warmed = 0.0;
  double cycles = 0.0;
  for (const Replay& r : replays) {
    plan_s += r.plan_s;
    window_s += r.window_s;
    warmed += static_cast<double>(r.warmed);
    cycles += static_cast<double>(r.window_cycles);
    kips_s[r.is_fp] += r.window_s;
    kips_insts[r.is_fp] += static_cast<double>(r.window_committed);
  }
  report.set("arch.capture_us", 1e6 * median(tracer.seconds("arch.capture")));
  report.set("sim.warm_copy_us", 1e6 * median(tracer.seconds("sim.warm_copy")));
  report.set("sim.warm_mips", ratio(warmed, sum(tracer.seconds("sim.warm"))) / 1e6);
  report.set("sim.plan_s", plan_s);
  report.set("sim.serial_frac", ratio(plan_s, plan_s + window_s / threads));
  const std::vector<double> windows = tracer.seconds("sim.window");
  report.set("sim.window_ms.p50", 1e3 * median(windows));
  report.set("sim.window_ms.p99", 1e3 * percentile(windows, 0.99));
  // A class with no windows leaves its KIPS unset (see probe_missing_timings).
  if (kips_s[0] > 0) report.set("pipeline.kips.int", kips_insts[0] / kips_s[0] / 1e3);
  if (kips_s[1] > 0) report.set("pipeline.kips.fp", kips_insts[1] / kips_s[1] / 1e3);
  report.set("pipeline.ns_per_cycle", 1e9 * ratio(window_s, cycles));
}

}  // namespace erelbench
