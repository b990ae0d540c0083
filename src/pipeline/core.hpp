// The out-of-order execution core: an execute-driven, cycle-level model of
// the paper's Table 2 processor. Wrong-path instructions are genuinely
// fetched, renamed and executed (they hold physical registers — the resource
// this paper studies), and are squashed on branch resolution.
//
// Per-cycle phase order (tick): commit -> writeback/resolve -> memory stage
// -> issue -> dispatch/rename -> fetch. Earlier phases see the state left by
// the previous cycle, so results written back in cycle T feed issues in T
// (one-cycle producer-consumer distance for single-cycle ops) and commits in
// T+1.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "arch/arch_state.hpp"
#include "arch/checkpoint.hpp"
#include "arch/memory.hpp"
#include "arch/program.hpp"
#include "branch/btb.hpp"
#include "branch/gshare.hpp"
#include "branch/ras.hpp"
#include "core/rename_unit.hpp"
#include "core/types.hpp"
#include "dev/machine.hpp"
#include "mem/hierarchy.hpp"
#include "pipeline/fetch.hpp"
#include "pipeline/fu_pool.hpp"
#include "pipeline/lsq.hpp"
#include "pipeline/ros.hpp"
#include "pipeline/scheduler.hpp"
#include "sim/config.hpp"
#include "sim/probe.hpp"
#include "sim/stat_registry.hpp"
#include "sim/stats.hpp"
#include "sim/warm_state.hpp"

namespace erel::pipeline {

class Core final : public core::PipelineHooks {
 public:
  Core(const sim::SimConfig& config, const arch::Program& program);

  /// Resumes detailed simulation from an architectural checkpoint (sampled
  /// simulation, saved fast-forwards): memory is restored to the checkpoint
  /// image, fetch starts at its PC, the committed-register state is seeded
  /// into the rename map's architectural versions, and the oracle (when
  /// enabled) co-simulates from the same point. Without `warm`, caches and
  /// predictors start cold; with it, they are copied from a functionally
  /// warmed sim::WarmState (cache stats are reset so the measured window
  /// counts only its own accesses).
  ///
  /// `decoded` is a decode-once cache of `program` shared across cores
  /// (sampled simulation builds one per run instead of one per window).
  /// Ignored when config.fast_path is off; when fast_path is on and
  /// `decoded` is null, the core builds its own. Either way the core scans
  /// the restored code image against the program and executes
  /// byte-accurately when a self-modified checkpoint makes the cache stale.
  Core(const sim::SimConfig& config, const arch::Program& program,
       const arch::Checkpoint& checkpoint,
       const sim::WarmState* warm = nullptr,
       std::shared_ptr<const arch::DecodedProgram> decoded = nullptr);
  ~Core() override;

  /// Advances one cycle.
  void tick();

  /// Runs until HALT commits or a run-control limit is reached; finalizes
  /// the statistics registry and returns the SimStats view of it.
  sim::SimStats run();

  // ---- instrumentation ----

  /// Attaches an observer for the run. Call before the first tick; the
  /// probe's on_run_begin fires immediately (registering its counters in
  /// the core's registry) and its on_commit fires for every committed
  /// instruction. Probes never change simulation results; the caller keeps
  /// ownership and must outlive the core.
  void attach_probe(sim::Probe* probe);

  /// Builds fresh instances from named probe recipes (fatal on a null
  /// factory result) and attaches each; the returned vector owns them and
  /// must outlive the core's run.
  [[nodiscard]] std::vector<std::unique_ptr<sim::Probe>> attach_probes(
      const std::vector<sim::ProbeSpec>& specs);

  /// The open statistics surface. Before run() finishes it holds only
  /// what attached probes registered; run() then publishes the core's
  /// counter block (every sim::for_each_stat path) and the optional
  /// fixed-stride channels (SimConfig::stat_stride) into it.
  /// sim::materialize_sim_stats() derives SimStats from it.
  [[nodiscard]] const sim::StatRegistry& registry() const { return registry_; }

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }
  [[nodiscard]] std::uint64_t committed() const { return committed_; }

  /// Committed architectural state (for result checks; stale mappings hold
  /// dead values, flagged via `stale`).
  [[nodiscard]] std::uint64_t arch_reg(core::RC cls, unsigned logical,
                                       bool* stale = nullptr) const;
  [[nodiscard]] const arch::SparseMemory& memory() const { return mem_; }

  [[nodiscard]] const core::RenameUnit& rename_unit() const { return rename_; }

  /// Invariant probe for tests: free + allocated == P per class.
  [[nodiscard]] bool conservation_holds() const;

  // --- core::PipelineHooks ---
  core::RenameRec* find_inflight(core::InstSeq seq) override;
  bool branch_pending_between(core::InstSeq lo,
                              core::InstSeq hi) const override;

 private:
  /// The other constructors' common body: predictors and caches are
  /// copy-constructed from `warm` when it is given, built cold otherwise.
  Core(const sim::SimConfig& config, const arch::Program& program,
       std::shared_ptr<const arch::DecodedProgram> decoded,
       const sim::WarmState* warm);

  /// Entry for `seq` if it is still the same dynamic instruction.
  RosEntry* live_entry(core::InstSeq seq, std::uint64_t uid);

  void phase_commit();
  void phase_writeback();
  void phase_memory();
  void phase_issue();
  void phase_dispatch();
  void phase_fetch();

  /// Completes the counter block (cycles/committed/halted, policy
  /// counters, occupancy integrals, cache counters) and publishes it and
  /// the occupancy channels into the registry. Called once, by run().
  void finish_registry();

  [[nodiscard]] bool operands_ready(const RosEntry& e) const;
  [[nodiscard]] std::uint64_t operand_value(isa::RegClass cls,
                                            core::PhysReg p) const;

  /// Hands a Dispatched entry to the issue scheduler: parked on the first
  /// operand register found not ready (mirroring operands_ready()'s check
  /// order), or straight into the ready queue.
  void schedule_issue(RosEntry& e);

  /// Writeback wakeup: re-evaluates every consumer parked on (cls, reg).
  void wake_consumers(core::RC cls, core::PhysReg reg);

  void execute(RosEntry& e);
  void complete(RosEntry& e);
  void resolve_branch(RosEntry& e);
  void squash_after(core::InstSeq boundary);
  void exception_flush(std::uint64_t resume_pc);
  void check_oracle(const RosEntry& e, const LsqEntry* mem_entry);
  [[nodiscard]] std::uint64_t finish_load_value(isa::Opcode op,
                                                std::uint64_t raw) const;

  sim::SimConfig config_;
  // Decode-once program cache (null when config.fast_path is off): fetch
  // reads micro-op records for in-image PCs, the oracle executes from it.
  // A committed store into the code image detaches it from fetch (the
  // oracle detaches itself when it replays the store).
  std::shared_ptr<const arch::DecodedProgram> decoded_;
  arch::SparseMemory mem_;  // committed memory state
  mem::MemoryHierarchy hierarchy_;
  branch::Gshare gshare_;
  branch::Btb btb_;
  branch::Ras ras_;
  FetchUnit fetch_;
  Ros ros_;
  Lsq lsq_;
  FuPool fu_pool_;
  core::RenameUnit rename_;

  std::vector<core::InstSeq> pending_branches_;  // unresolved, decode order
                                                 // (at most
                                                 // max_pending_branches)
  IssueScheduler scheduler_;
  CompletionQueue completions_;
  std::vector<SchedTag> woken_;  // wake_consumers scratch (no nesting)
  // Registers whose squashed definer reused its previous mapping: the
  // squash resurrects their ready bit without a writeback, so survivors
  // parked on them must be re-woken (squash_after scratch).
  std::vector<std::pair<core::RC, core::PhysReg>> reuse_wakes_;
  std::vector<SchedTag> pending_loads_;   // in the memory stage
  std::vector<SchedTag> pending_stores_;  // address known, data pending
  std::uint64_t next_uid_ = 1;

  std::unique_ptr<arch::ArchState> oracle_;

  // The timing side's own device instance (the oracle carries another; both
  // see the same MMIO operations at the same retirement boundaries, so they
  // stay bit-identical). Interrupts are delivered in phase_commit at the
  // head of the ROS — the oldest not-yet-retired, provably correct-path
  // instruction — mirroring ArchState::step's boundary exactly.
  dev::Machine dev_;
  // Retirement boundary = icount_base_ + committed_ (nonzero when resumed
  // from a checkpoint, so device time continues from the functional
  // fast-forward instead of restarting at zero).
  std::uint64_t icount_base_ = 0;

  std::uint64_t cycle_ = 0;
  std::uint64_t committed_ = 0;
  bool halted_ = false;
  std::uint64_t last_commit_cycle_ = 0;  // deadlock watchdog
  std::uint64_t next_flush_at_ = 0;
  core::InstSeq last_flushed_seq_ = core::kNoSeq;

  // The counter block: the hot pipeline counters (stalls, branches,
  // flushes, squashes) count here during the run; finish_registry()
  // completes it and publishes it into the registry.
  sim::SimStats stats_;
  sim::StatRegistry registry_;

  std::vector<sim::Probe*> probes_;  // non-owning, attach order
  // Cached probes_.empty() — one flag instead of a size load+compare at
  // the commit fan-out site on the hot path.
  bool has_probes_ = false;
};

}  // namespace erel::pipeline
