// go-long: one long program (kernel_go(19200), about 85M instructions)
// sampled with its measurement sharded over four threads. The serial
// planning pass dominates the wall time, so bounded or parallel warming
// and a faster functional engine show here.
#include "arch/arch_state.hpp"
#include "arch/decoded_program.hpp"
#include "bench.hpp"
#include "sim/sampling.hpp"

namespace erelbench {

void run_go_long(const Options& opts, Tracer& tracer, Report& report) {
  const unsigned sweeps = opts.smoke ? kGoSmokeSweeps : kGoSweeps;
  const std::string name = "go@" + std::to_string(sweeps);
  const erel::sim::SimConfig config = go_config();
  const erel::sim::SamplingConfig sampling = go_sampling(opts.seed);
  const References refs = References::load(opts.reference);
  const auto check = [&report](const erel::sim::SampledStats& s) {
    expect_cell(report, "go-long", s.estimate.halted, s.estimate.committed,
                s.estimate.ipc());
  };

  if (!tracer.enabled()) {
    erel::arch::Program program;
    const auto set_up = [&] {
      Tracer off(false);
      program = assemble_programs({name}, off).front();
    };
    std::vector<double> setups;
    time_calls(kSetupReps, set_up, setups);
    const std::vector<double> walls = timed_passes(opts.seconds, 1, [&] {
      check(erel::sim::SampledSimulator(config, sampling).run(program));
    });
    time_calls(kSetupReps, set_up, setups);
    report.set("setup_s", median(setups));
    report_batch_walls(walls, report);
    return;
  }

  const erel::arch::Program program = assemble_programs({name}, tracer).front();
  report_setup_layers(tracer, report);

  // The timed path, untraced: the base of trace.overhead_pct and the
  // records every replay below must reproduce.
  const Clock::time_point u0 = Clock::now();
  const erel::sim::SampledStats timed =
      erel::sim::SampledSimulator(config, sampling).run(program);
  const double wall_u = seconds_since(u0);
  check(timed);

  {
    // The functional engine alone, to HALT.
    const erel::arch::DecodedProgram decoded(program);
    erel::arch::ArchState state(program, &decoded);
    const Clock::time_point f0 = Clock::now();
    std::uint64_t executed = 0;
    {
      const Span span(tracer, "arch.run");
      executed = state.run();
    }
    report.set("arch.func_mips", ratio(static_cast<double>(executed),
                                       seconds_since(f0)) / 1e6);
    report.expect(state.halted(), "ArchState::run stopped before HALT");
  }

  // The sampler replayed stage by stage: measured on kThreads shards (the
  // traced pass) and again on two, a different shard count; both must
  // reproduce the timed run's records bit for bit.
  std::vector<Replay> replays;
  {
    const Span pass(tracer, "sim.sampled_run");
    replays = replay_sampled(program, config, sampling, {kThreads, 2}, tracer,
                             pass.id());
  }
  for (const Replay& r : replays) {
    report.expect(r.samples == timed.samples &&
                      r.total_instructions == timed.total_instructions,
                  "replayed go-long records differ from SampledSimulator::run's");
  }
  const double wall_t = replays.front().plan_s + replays.front().measure_wall_s;
  report_replays({replays.front()}, kThreads, tracer, report);
  report.set("pipeline.cell_s.p50", wall_u);
  report.set("pipeline.cell_s.max", wall_u);
  report_model(report, timed.estimate.committed, timed.estimate.cycles,
               timed.detailed_instructions, timed.units_planned);
  report_ipc_error(refs,
                   {{cell_key(opts.smoke ? name : kGoLongName,
                              erel::core::PolicyKind::Extended, 64),
                     timed.estimate.ipc()}},
                   opts.smoke, report);
  report.set("trace.overhead_pct", 100.0 * (wall_t - wall_u) / wall_u);
}

}  // namespace erelbench
