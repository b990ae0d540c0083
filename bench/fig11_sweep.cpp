// Figure 11 reproduction: harmonic-mean IPC vs physical register file size
// (40..160 per class) for the release policies, integer and FP program
// sets, plus the per-size speedups the paper quotes in §5.1.
//
// Shared sweep CLI (bench_util.hpp): --threads, --csv, --cache-dir,
// --policies, --smoke. With --sample every cell runs under checkpointed
// stratified interval sampling (--target-ci for confidence-driven
// stopping) — the one-flag path to paper-scale sweeps — and the tables
// gain per-policy 95% CI columns. Under --sample --smoke a full-detail
// reference sweep also runs (cheap at smoke scale) and a sampled-vs-full
// delta column is printed next to the CIs.
#include <cstdio>
#include <optional>

#include "common/table.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace erel;
  using core::PolicyKind;

  const auto opts = benchutil::cli::parse(argc, argv);
  const std::vector<unsigned> sizes = opts.smoke
                                          ? std::vector<unsigned>{48, 96}
                                          : harness::register_sweep_sizes();

  harness::Experiment exp;
  exp.workloads(opts.workload_names())
      .policies(opts.policies)
      .phys_regs(sizes);
  if (opts.sample) exp.sampling(opts.sampling_config());
  opts.add_probes(exp);
  const harness::ResultSet rs = exp.run(opts.run_options());

  // Full-detail reference for the sampled-vs-full columns; at paper scale
  // run once without --sample into the same --cache-dir instead.
  std::optional<harness::ResultSet> full;
  if (opts.sample && opts.smoke) {
    harness::Experiment ref;
    ref.workloads(opts.workload_names())
        .policies(opts.policies)
        .phys_regs(sizes);
    full = ref.run(opts.run_options());
  }

  std::printf(
      "=== Figure 11: harmonic-mean IPC vs number of physical registers "
      "===%s\n",
      opts.sample ? " (sampled)" : "");
  const PolicyKind baseline = opts.policies.front();
  for (const bool fp : {false, true}) {
    const auto names = fp ? opts.fp_names() : opts.int_names();
    if (names.empty()) continue;
    std::printf("\n-- %s --\n", fp ? "FP" : "Integer");

    std::vector<std::string> header = {"registers"};
    for (const PolicyKind pk : opts.policies) {
      header.push_back(std::string(core::policy_name(pk)));
      if (opts.sample) header.push_back("±ci95");
      if (full) header.push_back("Δ vs full");
    }
    for (std::size_t k = 1; k < opts.policies.size(); ++k)
      header.push_back(std::string(core::policy_name(opts.policies[k])) +
                       " speedup");
    TextTable t(std::move(header));

    for (const unsigned p : sizes) {
      std::vector<std::string> row = {std::to_string(p)};
      for (const PolicyKind pk : opts.policies) {
        const double h = rs.hmean_ipc(names, pk, p);
        row.push_back(TextTable::num(h));
        if (opts.sample)
          row.push_back(TextTable::num(rs.hmean_ipc_ci95(names, pk, p), 4));
        if (full)
          row.push_back(
              TextTable::speedup_pct(h, full->hmean_ipc(names, pk, p)));
      }
      for (std::size_t k = 1; k < opts.policies.size(); ++k)
        row.push_back(
            TextTable::pct(rs.speedup_vs(names, opts.policies[k], baseline, p)));
      t.add_row(std::move(row));
    }
    std::printf("%s", t.to_string().c_str());
  }

  // --power: total register-file energy and summed ED^2 per size/policy
  // over the whole workload set (per-workload values land in --csv).
  if (opts.power) {
    std::printf(
        "\n=== Register-file energy vs size (RixnerProbe, --power) ===\n");
    std::vector<std::string> header = {"registers"};
    for (const PolicyKind pk : opts.policies) {
      header.push_back(std::string(core::policy_name(pk)) + " sumE(nJ)");
      header.push_back(std::string(core::policy_name(pk)) + " sumED2");
    }
    TextTable t(std::move(header));
    for (const unsigned p : sizes) {
      std::vector<std::string> row = {std::to_string(p)};
      for (const PolicyKind pk : opts.policies) {
        double energy = 0.0, ed2 = 0.0;
        for (const auto& name : opts.workload_names()) {
          const auto& e = rs.at({name, pk, p, ""});
          energy += e.metric("power/energy_nj").value_or(0.0);
          ed2 += e.metric("power/ed2").value_or(0.0);
        }
        row.push_back(TextTable::num(energy, 1));
        row.push_back(TextTable::num(ed2, 0));
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

  // Per-benchmark highlights the paper calls out (§5.1) — only meaningful
  // on the full grid with the full workload set.
  const auto have = [&](const char* w, PolicyKind pk, unsigned p) {
    return rs.contains({w, pk, p, ""});
  };
  if (have("tomcatv", PolicyKind::Extended, 40) &&
      have("tomcatv", PolicyKind::Conventional, 40)) {
    std::printf("\n-- paper-highlighted points --\n");
    const auto point = [&](const char* w, PolicyKind pk, unsigned p) {
      return rs.ipc({w, pk, p, ""});
    };
    for (const unsigned p : {40u, 56u, 88u}) {
      if (!have("tomcatv", PolicyKind::Extended, p)) continue;
      std::printf(
          "tomcatv @%3u: extended/conv = %s (paper: +16/+12/+8%%)\n", p,
          TextTable::speedup_pct(point("tomcatv", PolicyKind::Extended, p),
                                 point("tomcatv", PolicyKind::Conventional, p))
              .c_str());
    }
    if (have("hydro2d", PolicyKind::Extended, 40)) {
      std::printf(
          "hydro2d @ 40: extended/conv = %s (paper: +12%%)\n",
          TextTable::speedup_pct(point("hydro2d", PolicyKind::Extended, 40),
                                 point("hydro2d", PolicyKind::Conventional, 40))
              .c_str());
    }
    std::printf(
        "\npaper shape: FP gains 10%%->2%% over 40..104 then fade to loose;\n"
        "int gains only for very tight files (40..64), extended > basic,\n"
        "with basic ~= extended for FP codes.\n");
  }

  benchutil::cli::finish(rs, opts);
  if (full && !opts.cache_dir.empty())
    std::printf("reference cache: %zu hits, %zu simulated\n",
                full->cache_hits(), full->simulated());
  return 0;
}
