// Figure 3 reproduction: average number of Allocated registers in the
// Empty / Ready / Idle states under conventional renaming, with a tight
// 96+96 register file (L=32, N=128) — integer registers for integer
// programs, FP registers for FP programs.
// Shared sweep CLI: --threads, --csv, --cache-dir, --smoke.
//
// --timeseries=PATH additionally re-runs each workload with the
// Instrumentation API's fixed-stride occupancy channels enabled
// (SimConfig::stat_stride, --stride to override) and writes the per-stride
// Empty/Ready/Idle decomposition as CSV — the paper's Figure 3 as a curve
// over time instead of run averages. Channel runs bypass the result cache
// (channels live in the core's StatRegistry, not in cached cells).
#include <cstdio>
#include <fstream>

#include "common/log.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "bench_util.hpp"
#include "sim/simulator.hpp"

namespace {

void write_timeseries(const erel::benchutil::cli::Options& opts,
                      unsigned phys) {
  using namespace erel;
  const std::uint64_t stride = opts.stat_stride();
  const std::vector<std::string> names = opts.workload_names();
  // One channel run per workload, sharded over the harness pool (channel
  // runs bypass the result cache, so this is the expensive part).
  std::vector<std::string> blocks(names.size());
  ThreadPool pool(opts.threads);
  parallel_for(pool, names.size(), [&](std::size_t i) {
    const std::string& name = names[i];
    sim::SimConfig cfg =
        harness::experiment_config(core::PolicyKind::Conventional, phys);
    cfg.stat_stride = stride;
    auto core = sim::Simulator(cfg).make_core(
        workloads::assemble_workload(name));
    (void)core->run();
    const sim::StatRegistry& reg = core->registry();
    for (const char* cls : {"int", "fp"}) {
      const std::string base = std::string("channel/occupancy/") + cls + '/';
      const auto* empty = reg.find_channel(base + "empty");
      const auto* ready = reg.find_channel(base + "ready");
      const auto* idle = reg.find_channel(base + "idle");
      EREL_CHECK(empty && ready && idle, "occupancy channels missing for ",
                 name);
      for (std::size_t k = 0; k < empty->points.size(); ++k) {
        char row[256];
        std::snprintf(row, sizeof row, "%s,%s,%zu,%llu,%.6f,%.6f,%.6f\n",
                      name.c_str(), cls, k,
                      static_cast<unsigned long long>(k * stride),
                      empty->points[k], ready->points[k], idle->points[k]);
        blocks[i] += row;
      }
    }
  });
  std::string out = "workload,class,bucket,start_cycle,empty,ready,idle\n";
  for (const std::string& block : blocks) out += block;
  std::ofstream file(opts.timeseries_path, std::ios::trunc);
  EREL_CHECK(file.good(), "cannot open '", opts.timeseries_path, "'");
  file << out;
  file.flush();
  EREL_CHECK(file.good(), "short write to '", opts.timeseries_path, "'");
  std::printf("wrote occupancy time series %s (stride %llu cycles)\n",
              opts.timeseries_path.c_str(),
              static_cast<unsigned long long>(stride));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace erel;
  using core::PolicyKind;

  const auto opts = benchutil::cli::parse(argc, argv);
  constexpr unsigned kPhys = 96;

  const harness::ResultSet rs = harness::Experiment()
                                    .workloads(opts.workload_names())
                                    .policies({PolicyKind::Conventional})
                                    .phys_regs({kPhys})
                                    .run(opts.run_options());

  std::printf(
      "=== Figure 3: allocated registers by state, conventional renaming "
      "(P=96 per class) ===\n");
  for (const bool fp : {false, true}) {
    const auto names = fp ? opts.fp_names() : opts.int_names();
    if (names.empty()) continue;
    std::printf("\n-- %s programs (%s registers) --\n",
                fp ? "floating point" : "integer", fp ? "FP" : "integer");
    TextTable t({"benchmark", "empty", "ready", "idle", "allocated",
                 "idle inflation"});
    double sum_empty = 0, sum_ready = 0, sum_idle = 0;
    for (const auto& name : names) {
      const auto& stats = rs.stats({name, PolicyKind::Conventional, kPhys, ""});
      const core::Occupancy& occ = stats.occupancy[fp ? 1 : 0];
      sum_empty += occ.avg_empty;
      sum_ready += occ.avg_ready;
      sum_idle += occ.avg_idle;
      t.add_row({name, TextTable::num(occ.avg_empty, 1),
                 TextTable::num(occ.avg_ready, 1),
                 TextTable::num(occ.avg_idle, 1),
                 TextTable::num(occ.avg_allocated(), 1),
                 TextTable::pct(occ.avg_idle /
                                (occ.avg_empty + occ.avg_ready))});
    }
    const double n = static_cast<double>(names.size());
    t.add_row({"Amean", TextTable::num(sum_empty / n, 1),
               TextTable::num(sum_ready / n, 1),
               TextTable::num(sum_idle / n, 1),
               TextTable::num((sum_empty + sum_ready + sum_idle) / n, 1),
               TextTable::pct(sum_idle / (sum_empty + sum_ready))});
    std::printf("%s", t.to_string().c_str());
  }
  std::printf(
      "\npaper: the Idle state inflates used registers by 45.8%% (int) and\n"
      "16.8%% (FP). Our kernels reproduce the premise (a large Idle share\n"
      "for every program); the int-vs-FP asymmetry depends on SPEC code\n"
      "shapes we approximate only loosely (ROADMAP.md item 8 measures\n"
      "the gap).\n");
  if (!opts.timeseries_path.empty()) write_timeseries(opts, kPhys);
  benchutil::cli::finish(rs, opts);
  return 0;
}
