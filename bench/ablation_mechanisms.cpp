// Ablation study (beyond the paper's headline results): which design choices
// of the extended mechanism matter?
//   1. RelQue depth (max pending branches 4 / 8 / 20): conditional releases
//      need branch coverage.
//   2. Basic-without-reuse vs basic (how much of the basic win is the
//      register-reuse optimization vs early release per se) — approximated
//      by comparing against extended, which never reuses.
//   3. LSQ store->load forwarding contribution (memory substrate ablation):
//      shrink the LSQ to throttle it.
// Ablations 1 and 3 sweep a non-register axis via Experiment::vary(), the
// declarative hook for arbitrary SimConfig mutators.
// Shared sweep CLI: --threads, --csv, --cache-dir, --smoke.
#include <cstdio>

#include "common/table.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace erel;
  using core::PolicyKind;

  const auto opts = benchutil::cli::parse(argc, argv);
  const auto int_names = opts.int_names();
  const auto fp_names = opts.fp_names();

  // The three ablations are separate sweeps; their keys never collide
  // (different variants / phys points), so the sinks and the cache
  // provenance line report them as one combined ResultSet.
  harness::ResultSet combined;
  const auto absorb = [&combined](const harness::ResultSet& rs) {
    for (const harness::ExpEntry& e : rs.entries()) combined.add(e);
  };

  // --- 1. checkpoint budget / RelQue depth ---
  std::printf("=== ablation 1: pending-branch budget (extended, 48+48) ===\n");
  {
    std::vector<harness::Experiment::AxisPoint> depths;
    for (const unsigned depth : {4u, 8u, 20u})
      depths.push_back({std::to_string(depth),
                        [depth](sim::SimConfig& config) {
                          config.max_pending_branches = depth;
                        }});
    const harness::ResultSet rs = harness::Experiment()
                                      .workloads(opts.workload_names())
                                      .policies({PolicyKind::Extended})
                                      .phys_regs({48})
                                      .vary("maxbr", depths)
                                      .run(opts.run_options());
    absorb(rs);
    TextTable t({"max pending branches", "int Hm IPC", "FP Hm IPC"});
    for (const std::string& variant : rs.variants()) {
      t.add_row({variant.substr(variant.find('=') + 1),
                 TextTable::num(
                     rs.hmean_ipc(int_names, PolicyKind::Extended, 48, variant)),
                 TextTable::num(
                     rs.hmean_ipc(fp_names, PolicyKind::Extended, 48, variant))});
    }
    std::printf("%s", t.to_string().c_str());
  }

  // --- 2. release-channel mix per policy ---
  std::printf(
      "\n=== ablation 2: where do releases happen? (48+48, per class) ===\n");
  {
    const harness::ResultSet rs = harness::Experiment()
                                      .workloads(opts.workload_names())
                                      .policies(core::all_policies())
                                      .phys_regs({48})
                                      .run(opts.run_options());
    absorb(rs);
    TextTable t({"policy", "class", "conventional", "early@LU", "immediate",
                 "reuse", "branch-confirm", "fallback"});
    for (const PolicyKind policy : core::all_policies()) {
      for (int cls = 0; cls < 2; ++cls) {
        core::PolicyStats sum;
        for (const auto& w : opts.workload_names()) {
          const auto& ps = rs.stats({w, policy, 48, ""}).policy_stats[cls];
          sum.conventional_releases += ps.conventional_releases;
          sum.early_commit_releases += ps.early_commit_releases;
          sum.immediate_releases += ps.immediate_releases;
          sum.reuses += ps.reuses;
          sum.branch_confirm_releases += ps.branch_confirm_releases;
          sum.fallback_conventional += ps.fallback_conventional;
        }
        t.add_row({std::string(core::policy_name(policy)),
                   cls == 0 ? "int" : "fp",
                   std::to_string(sum.conventional_releases),
                   std::to_string(sum.early_commit_releases),
                   std::to_string(sum.immediate_releases),
                   std::to_string(sum.reuses),
                   std::to_string(sum.branch_confirm_releases),
                   std::to_string(sum.fallback_conventional)});
      }
    }
    std::printf("%s", t.to_string().c_str());
  }

  // --- 3. LSQ capacity (memory substrate) ---
  std::printf("\n=== ablation 3: LSQ size (extended, 64+64) ===\n");
  {
    std::vector<harness::Experiment::AxisPoint> lsq_sizes;
    for (const unsigned lsq : {16u, 32u, 64u})
      lsq_sizes.push_back({std::to_string(lsq), [lsq](sim::SimConfig& config) {
                             config.lsq_size = lsq;
                           }});
    const harness::ResultSet rs = harness::Experiment()
                                      .workloads(opts.workload_names())
                                      .policies({PolicyKind::Extended})
                                      .phys_regs({64})
                                      .vary("lsq", lsq_sizes)
                                      .run(opts.run_options());
    absorb(rs);
    TextTable t({"LSQ entries", "int Hm IPC", "FP Hm IPC"});
    for (const std::string& variant : rs.variants()) {
      t.add_row({variant.substr(variant.find('=') + 1),
                 TextTable::num(
                     rs.hmean_ipc(int_names, PolicyKind::Extended, 64, variant)),
                 TextTable::num(
                     rs.hmean_ipc(fp_names, PolicyKind::Extended, 64, variant))});
    }
    std::printf("%s", t.to_string().c_str());
  }
  benchutil::cli::finish(combined, opts);
  return 0;
}
