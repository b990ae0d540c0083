// Table 4 reproduction: register file sizes giving equal IPC — how many
// registers the extended mechanism saves at iso-performance (paper: 12.5%
// and 11.1% for int codes, 7.2% and 8.9% for FP codes).
// Shared sweep CLI: --threads, --csv, --cache-dir, --smoke, --sample.
#include <cstdio>

#include <algorithm>

#include "common/table.hpp"
#include "bench_util.hpp"

namespace {

using erel::core::PolicyKind;

/// IPC curve as (size, hmean) points, ascending.
struct Curve {
  std::vector<unsigned> sizes;
  std::vector<double> ipc;

  /// Smallest (possibly fractional, linearly interpolated) size achieving at
  /// least `target` IPC; returns 0 when the curve never reaches it.
  [[nodiscard]] double size_for(double target) const {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (ipc[i] >= target) {
        if (i == 0) return sizes[0];
        const double frac =
            (target - ipc[i - 1]) / std::max(1e-12, ipc[i] - ipc[i - 1]);
        return sizes[i - 1] + frac * (sizes[i] - sizes[i - 1]);
      }
    }
    return 0;
  }

  [[nodiscard]] double ipc_at(unsigned size) const {
    for (std::size_t i = 0; i < sizes.size(); ++i)
      if (sizes[i] == size) return ipc[i];
    return 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace erel;

  const auto opts = benchutil::cli::parse(argc, argv);

  // A finer grid than Figure 11 so the interpolation is meaningful; the
  // smoke grid keeps the 40..64 tight region where the savings live.
  std::vector<unsigned> sizes;
  if (opts.smoke) {
    for (unsigned p = 40; p <= 64; p += 8) sizes.push_back(p);
  } else {
    for (unsigned p = 40; p <= 112; p += 4) sizes.push_back(p);
  }

  harness::Experiment exp;
  exp.workloads(opts.workload_names())
      .policies({PolicyKind::Conventional, PolicyKind::Extended})
      .phys_regs(sizes);
  if (opts.sample) exp.sampling(opts.sampling_config());
  const harness::ResultSet rs = exp.run(opts.run_options());

  std::printf("=== Table 4: register file sizes giving equal IPC ===\n");
  for (const bool fp : {true, false}) {
    const auto names = fp ? opts.fp_names() : opts.int_names();
    if (names.empty()) continue;
    Curve conv, ext;
    for (const unsigned p : sizes) {
      conv.sizes.push_back(p);
      conv.ipc.push_back(rs.hmean_ipc(names, PolicyKind::Conventional, p));
      ext.sizes.push_back(p);
      ext.ipc.push_back(rs.hmean_ipc(names, PolicyKind::Extended, p));
    }
    std::printf("\n-- %s codes --\n", fp ? "FP" : "int");
    TextTable t({"conv size", "conv IPC", "extended size (same IPC)",
                 "saved", "saved %"});
    // Reference sizes roughly where the paper's examples sit.
    for (const unsigned ref : {64u, 72u, 80u}) {
      const double target = conv.ipc_at(ref);
      if (target <= 0) continue;
      const double needed = ext.size_for(target);
      if (needed <= 0) continue;
      t.add_row({std::to_string(ref), TextTable::num(target),
                 TextTable::num(needed, 1), TextTable::num(ref - needed, 1),
                 TextTable::pct((ref - needed) / ref)});
    }
    std::printf("%s", t.to_string().c_str());
  }
  std::printf(
      "\npaper: FP 69->64 (7.2%%) and 79->72 (8.9%%); int 64->56 (12.5%%)\n"
      "and 72->64 (11.1%%). Expect savings of the same order wherever the\n"
      "conv curve is still climbing (tight region).\n");
  benchutil::cli::finish(rs, opts);
  return 0;
}
