#include "harness/harness.hpp"

#include <algorithm>

#include "asmkit/assembler.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "power/probe.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace erel::harness {

namespace {

/// The recipes the core and the sampler attach: one per probe name, each
/// building a fresh instance through the registry. Aborts on a name the
/// registry does not know before anything is simulated, so every later
/// make_probe of the spec's names succeeds.
std::vector<sim::ProbeSpec> probe_specs(const RunSpec& spec) {
  std::vector<sim::ProbeSpec> recipes;
  for (const std::string& name : spec.probes) {
    EREL_CHECK(make_probe(name) != nullptr, "unknown probe '", name, "'");
    recipes.push_back({name, [name] { return make_probe(name); }});
  }
  return recipes;
}

/// Exports the spec's probe metrics over `registry`. Metric export is a
/// pure function of (config, registry), so a fresh never-attached instance
/// serves both the full and the sampled path.
std::vector<sim::Metric> collect_metrics(const RunSpec& spec,
                                         const sim::StatRegistry& registry) {
  std::vector<sim::Metric> metrics;
  for (const std::string& name : spec.probes)
    make_probe(name)->export_metrics(spec.config, registry, metrics);
  return metrics;
}

RunResult sampled_result(const RunSpec& spec, sim::SampledStats sampled) {
  std::vector<sim::Metric> metrics = collect_metrics(spec, sampled.registry);
  return RunResult{sampled.estimate, std::move(sampled), std::move(metrics)};
}

}  // namespace

std::unique_ptr<sim::Probe> make_probe(std::string_view name) {
  if (name == "rixner") return std::make_unique<power::RixnerProbe>();
  return nullptr;
}

RunResult run_one(const RunSpec& spec) {
  const arch::Program program = workloads::assemble_workload(spec.workload);
  if (spec.sampling) {
    return sampled_result(spec, sim::SampledSimulator(spec.config,
                                                      *spec.sampling)
                                    .run(program, probe_specs(spec)));
  }
  sim::Simulator simulator(spec.config);
  std::unique_ptr<pipeline::Core> core = simulator.make_core(program);
  const std::vector<std::unique_ptr<sim::Probe>> instances =
      core->attach_probes(probe_specs(spec));
  const sim::SimStats stats = core->run();
  return RunResult{stats, std::nullopt,
                   collect_metrics(spec, core->registry())};
}

std::vector<RunResult> run_all(const std::vector<RunSpec>& specs,
                               unsigned threads) {
  std::vector<RunResult> results(specs.size());
  ThreadPool pool(threads);

  // Full-detail specs run one task each. Sampled specs that can share a
  // planning pass — the same workload, the same canonical sampling fields
  // and the same plan key (sim::same_plan) — form one plan group.
  struct PlanGroup {
    std::string sampling;  // canonical sampling fields
    std::vector<std::size_t> members;
  };
  std::vector<PlanGroup> groups;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    if (!spec.sampling) {
      pool.submit([&results, &specs, i] { results[i] = run_one(specs[i]); });
      continue;
    }
    std::string sampling;
    sim::append_canonical_fields(*spec.sampling, sampling);
    const auto shares_plan = [&](const PlanGroup& group) {
      const RunSpec& first = specs[group.members.front()];
      return group.sampling == sampling && first.workload == spec.workload &&
             sim::same_plan(first.config, spec.config);
    };
    auto group = std::find_if(groups.begin(), groups.end(), shares_plan);
    if (group == groups.end())
      group = groups.insert(groups.end(), PlanGroup{std::move(sampling), {}});
    group->members.push_back(i);
  }

  // Each group is one task too: it plans once, on whichever worker runs
  // it, and measures its windows there while the pool is busy, handing the
  // rest of a unit's windows to workers that idle (see run_group).
  for (const PlanGroup& group : groups) {
    pool.submit([&results, &specs, &pool, &group] {
      const RunSpec& first = specs[group.members.front()];
      std::vector<sim::SimConfig> configs;
      std::vector<std::vector<sim::ProbeSpec>> probes;
      for (const std::size_t i : group.members) {
        configs.push_back(specs[i].config);
        probes.push_back(probe_specs(specs[i]));
      }
      const arch::Program program =
          workloads::assemble_workload(first.workload);
      std::vector<sim::SampledStats> sampled =
          sim::SampledSimulator(std::move(configs), *first.sampling)
              .run_group(program, probes, &pool);
      for (std::size_t j = 0; j < group.members.size(); ++j) {
        const std::size_t i = group.members[j];
        results[i] = sampled_result(specs[i], std::move(sampled[j]));
      }
    });
  }
  pool.wait_idle();
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
