#include "harness/harness.hpp"

#include "asmkit/assembler.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace erel::harness {

RunResult run_one(const RunSpec& spec) {
  const arch::Program program = workloads::assemble_workload(spec.workload);
  // Metric export is a pure function of (config, registry), so a fresh
  // never-attached instance serves both the full and the sampled path.
  // Metrics with unserializable names are dropped here with a warning
  // rather than aborting a finished sweep at cache-save time.
  const auto collect_metrics = [&spec](const sim::StatRegistry& registry) {
    std::vector<sim::Metric> metrics;
    for (const sim::ProbeSpec& p : spec.probes) {
      const std::unique_ptr<sim::Probe> probe = p.make();
      EREL_CHECK(probe != nullptr, "probe factory '", p.name,
                 "' returned null");
      probe->export_metrics(spec.config, registry, metrics);
    }
    std::erase_if(metrics, [&spec](const sim::Metric& m) {
      const bool bad =
          m.name.empty() || m.name.find_first_of(" \n") != std::string::npos;
      if (bad)
        EREL_WARN("dropping metric with unserializable name '", m.name,
                  "' from a probe of spec ", spec.tag);
      return bad;
    });
    return metrics;
  };
  if (spec.sampling) {
    sim::SampledSimulator sampler(spec.config, *spec.sampling);
    sim::SampledStats sampled = sampler.run(program, spec.probes);
    std::vector<sim::Metric> metrics = collect_metrics(sampled.registry);
    return RunResult{spec, sampled.estimate, std::move(sampled),
                     std::move(metrics)};
  }
  sim::Simulator simulator(spec.config);
  std::unique_ptr<pipeline::Core> core = simulator.make_core(program);
  const std::vector<std::unique_ptr<sim::Probe>> instances =
      core->attach_probes(spec.probes);
  const sim::SimStats stats = core->run();
  return RunResult{spec, stats, std::nullopt,
                   collect_metrics(core->registry())};
}

std::vector<RunResult> run_all(const std::vector<RunSpec>& specs,
                               unsigned threads) {
  std::vector<RunResult> results(specs.size());
  ThreadPool pool(threads);
  parallel_for(pool, specs.size(),
               [&](std::size_t i) { results[i] = run_one(specs[i]); });
  return results;
}

double harmonic_mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double inv_sum = 0;
  for (const double v : values) {
    if (v <= 0) return 0.0;  // limit of the harmonic mean as any value -> 0
    inv_sum += 1.0 / v;
  }
  return static_cast<double>(values.size()) / inv_sum;
}

sim::SimConfig experiment_config(core::PolicyKind policy, unsigned phys_regs) {
  sim::SimConfig config;
  config.policy = policy;
  config.phys_int = phys_regs;
  config.phys_fp = phys_regs;
  config.check_oracle = false;
  return config;
}

const std::vector<unsigned>& register_sweep_sizes() {
  static const std::vector<unsigned> sizes = {40, 48, 56, 64,  72,  80, 88,
                                              96, 104, 112, 120, 128, 160};
  return sizes;
}

}  // namespace erel::harness
