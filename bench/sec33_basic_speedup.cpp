// §3.3 reproduction: the basic mechanism's speedup over conventional at
// 64+64, 48+48 and 40+40 registers (paper: FP ~3%/6%/9%, int negligible
// except very tight files where it reaches ~5%).
// Shared sweep CLI: --threads, --csv, --cache-dir, --smoke, --sample.
#include <cstdio>

#include "common/table.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace erel;
  using core::PolicyKind;

  const auto opts = benchutil::cli::parse(argc, argv);
  const std::vector<unsigned> sizes =
      opts.smoke ? std::vector<unsigned>{48} : std::vector<unsigned>{64, 48, 40};

  harness::Experiment exp;
  exp.workloads(opts.workload_names())
      .policies({PolicyKind::Conventional, PolicyKind::Basic})
      .phys_regs(sizes);
  if (opts.sample) exp.sampling(opts.sampling_config());
  const harness::ResultSet rs = exp.run(opts.run_options());

  const auto int_names = opts.int_names();
  const auto fp_names = opts.fp_names();
  std::printf("=== Sec 3.3: basic mechanism speedup over conventional ===\n");
  TextTable t({"registers", "int Hm conv", "int Hm basic", "int speedup",
               "FP Hm conv", "FP Hm basic", "FP speedup"});
  for (const unsigned p : sizes) {
    t.add_row(
        {std::to_string(p),
         TextTable::num(rs.hmean_ipc(int_names, PolicyKind::Conventional, p)),
         TextTable::num(rs.hmean_ipc(int_names, PolicyKind::Basic, p)),
         TextTable::pct(rs.speedup_vs(int_names, PolicyKind::Basic,
                                      PolicyKind::Conventional, p)),
         TextTable::num(rs.hmean_ipc(fp_names, PolicyKind::Conventional, p)),
         TextTable::num(rs.hmean_ipc(fp_names, PolicyKind::Basic, p)),
         TextTable::pct(rs.speedup_vs(fp_names, PolicyKind::Basic,
                                      PolicyKind::Conventional, p))});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "\npaper: ~3%% FP @64, ~6%% FP @48, and @40 both types gain (5%% int,\n"
      "9%% FP); integer speedup negligible at 64/48.\n");
  benchutil::cli::finish(rs, opts);
  return 0;
}
