// Plugging a custom release policy into the pipeline through the public
// PolicyFactory extension point.
//
// The policy implemented here, "SourceOnlyBasic", is an ablated variant of
// the paper's basic mechanism: it keeps only the commit-synchronized rel-bit
// path for in-flight source-read last uses, and drops the LU-already-
// committed case (register reuse / immediate release at decode). The
// comparison is instructive: on FP codes this variant schedules *more*
// rel-bit releases than full basic yet captures almost none of its win —
// the decode-time C=1 path is what relieves a rename stall at the moment it
// happens, while commit-time releases arrive rate-limited by the in-order
// commit stream (see EXPERIMENTS.md, "where the FP win comes from").
//
//   $ ./custom_release_policy
#include <cstdio>

#include "core/release_policy.hpp"
#include "harness/harness.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace erel;
using core::InstSeq;
using core::LUsTable;
using core::RenameRec;
using core::UseKind;

/// Basic mechanism restricted to source-operand last uses.
class SourceOnlyBasic final : public core::ReleasePolicy {
 public:
  using ReleasePolicy::ReleasePolicy;

  [[nodiscard]] core::PolicyKind kind() const override {
    return core::PolicyKind::Basic;  // reported kind; behaviour is ablated
  }

  void record_src_use(unsigned logical, InstSeq seq, UseKind kind) override {
    lus_.record_use(logical, seq, kind);
  }
  void record_dst_use(unsigned logical, InstSeq seq) override {
    lus_.record_use(logical, seq, UseKind::Dst);
  }

  [[nodiscard]] bool can_rename_dest(unsigned, InstSeq, bool) const override {
    return !rf_.free_list.empty();  // never reuses: always allocates
  }

  DestPlan plan_dest(unsigned rd, InstSeq nv_seq, RenameRec& rec,
                     std::uint64_t) override {
    rec.rel_old = true;  // default: conventional release
    if (rec.old_stale) {
      rec.rel_old = false;
      return {};
    }
    const core::LUsEntry entry = lus_.lookup(rd);
    // Only Figure-4a cases (source reads), only when LU is still in flight
    // and no unverified branch separates the pair.
    if (entry.kind != UseKind::Src1 && entry.kind != UseKind::Src2) return {};
    if (lus_.committed(entry.seq)) return {};
    if (hooks_.branch_pending_between(entry.seq, nv_seq)) return {};
    RenameRec* lu = hooks_.find_inflight(entry.seq);
    if (lu == nullptr) return {};
    const std::uint8_t bit = core::rel_bit_for(entry.kind);
    if (lu->rel_bits & bit) return {};
    lu->rel_bits |= bit;
    rec.rel_old = false;
    return {};
  }

  void on_commit(const RenameRec& rec, InstSeq seq,
                 std::uint64_t cycle) override {
    lus_.on_commit(seq);
    release_rel_bits(rec, cycle);
    if (owns_dst(rec) && rec.rel_old && rec.old_pd != core::kNoReg)
      rf_.release(rec.old_pd, cycle, /*squashed=*/false);
  }

  void on_branch_mispredicted(InstSeq b) override { lus_.squash_after(b); }
  void on_exception_flush() override { lus_.reset_architectural(); }

 private:
  LUsTable lus_;
};

double run_with(const arch::Program& program, sim::SimConfig config) {
  return sim::Simulator(std::move(config)).run(program).ipc();
}

}  // namespace

int main() {
  const unsigned phys = 48;
  std::printf(
      "=== custom policy: basic without the definer-last-use case (48+48) "
      "===\n");
  std::printf("%-10s %8s %12s %8s\n", "workload", "conv", "source-only",
              "basic");
  for (const char* name : {"compress", "li", "mgrid", "tomcatv", "swim"}) {
    const erel::arch::Program program =
        erel::workloads::assemble_workload(name);

    auto conv_cfg =
        erel::harness::experiment_config(erel::core::PolicyKind::Conventional,
                                         phys);
    auto basic_cfg =
        erel::harness::experiment_config(erel::core::PolicyKind::Basic, phys);
    auto custom_cfg = conv_cfg;
    custom_cfg.policy_factory = [](erel::core::RC, erel::core::RegFileState& rf,
                                   erel::core::PipelineHooks& hooks) {
      return std::make_unique<SourceOnlyBasic>(rf, hooks);
    };

    const double conv = run_with(program, conv_cfg);
    const double custom = run_with(program, custom_cfg);
    const double basic = run_with(program, basic_cfg);
    std::printf("%-10s %8.3f %12.3f %8.3f   (src-only captures %.0f%% of the "
                "basic win)\n",
                name, conv, custom, basic,
                basic > conv ? 100.0 * (custom - conv) / (basic - conv)
                             : 100.0);
  }
  std::printf(
      "\nany ReleasePolicy subclass can be injected the same way via\n"
      "SimConfig::policy_factory; the pipeline drives it through the same\n"
      "rename/commit/branch hooks as the built-in mechanisms.\n");
  return 0;
}
