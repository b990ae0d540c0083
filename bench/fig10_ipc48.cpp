// Figure 10 reproduction: per-benchmark IPC for conventional / basic /
// extended with very tight 48+48 register files, plus harmonic means.
// Shared sweep CLI: --threads, --csv, --cache-dir, --policies,
// --smoke, --sample.
#include <cstdio>

#include "common/table.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace erel;
  using core::PolicyKind;

  const auto opts = benchutil::cli::parse(argc, argv);
  constexpr unsigned kPhys = 48;

  harness::Experiment exp;
  exp.workloads(opts.workload_names()).policies(opts.policies).phys_regs(
      {kPhys});
  if (opts.sample) exp.sampling(opts.sampling_config());
  opts.add_probes(exp);
  const harness::ResultSet rs = exp.run(opts.run_options());

  const PolicyKind baseline = opts.policies.front();
  std::printf("=== Figure 10: IPC with 48+48 registers ===\n");
  for (const bool fp : {false, true}) {
    const auto names = fp ? opts.fp_names() : opts.int_names();
    if (names.empty()) continue;
    std::printf("\n-- %s --\n", fp ? "FP" : "Integer");

    std::vector<std::string> header = {"benchmark"};
    for (const PolicyKind pk : opts.policies)
      header.push_back(std::string(core::policy_name(pk)));
    for (std::size_t k = 1; k < opts.policies.size(); ++k)
      header.push_back(std::string(core::policy_name(opts.policies[k])) +
                       " speedup");
    TextTable t(std::move(header));

    for (const auto& name : names) {
      std::vector<std::string> row = {name};
      const double base = rs.ipc({name, baseline, kPhys, ""});
      for (const PolicyKind pk : opts.policies)
        row.push_back(TextTable::num(rs.ipc({name, pk, kPhys, ""})));
      for (std::size_t k = 1; k < opts.policies.size(); ++k)
        row.push_back(TextTable::speedup_pct(
            rs.ipc({name, opts.policies[k], kPhys, ""}), base));
      t.add_row(std::move(row));
    }

    std::vector<std::string> hm_row = {"Hm"};
    for (const PolicyKind pk : opts.policies)
      hm_row.push_back(TextTable::num(rs.hmean_ipc(names, pk, kPhys)));
    for (std::size_t k = 1; k < opts.policies.size(); ++k)
      hm_row.push_back(TextTable::pct(
          rs.speedup_vs(names, opts.policies[k], baseline, kPhys)));
    t.add_row(std::move(hm_row));
    std::printf("%s", t.to_string().c_str());
  }
  // --power: register-file energy + ED^2 per benchmark and policy
  // (power::RixnerProbe metric columns; also in the --csv sink).
  if (opts.power) {
    std::printf("\n=== Register-file energy (RixnerProbe, --power) ===\n");
    std::vector<std::string> header = {"benchmark"};
    for (const PolicyKind pk : opts.policies) {
      header.push_back(std::string(core::policy_name(pk)) + " E(nJ)");
      header.push_back(std::string(core::policy_name(pk)) + " ED2");
    }
    TextTable t(std::move(header));
    for (const auto& name : opts.workload_names()) {
      std::vector<std::string> row = {name};
      for (const PolicyKind pk : opts.policies) {
        const auto& e = rs.at({name, pk, kPhys, ""});
        row.push_back(
            TextTable::num(e.metric("power/energy_nj").value_or(0.0), 1));
        row.push_back(
            TextTable::num(e.metric("power/ed2").value_or(0.0), 0));
      }
      t.add_row(std::move(row));
    }
    std::printf("%s", t.to_string().c_str());
    if (opts.sample)
      std::printf(
          "note: sampled cells charge only their measured windows, and\n"
          "confidence-driven stopping can measure a different number of\n"
          "windows per cell — compare energy per instruction, not columns\n"
          "of absolutes (per-cell counts are in --csv).\n");
  }

  std::printf(
      "\npaper (48+48): basic ~6%% FP speedup, negligible for int;\n"
      "extended ~8%% FP / ~5%% int. Expect the same ordering here with\n"
      "magnitudes shifted by our workload substitution.\n");
  benchutil::cli::finish(rs, opts);
  return 0;
}
