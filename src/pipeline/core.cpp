#include "pipeline/core.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "isa/semantics.hpp"

namespace erel::pipeline {

using core::InstSeq;
using core::kNoSeq;
using core::RC;
using isa::DecodedInst;
using isa::Opcode;
using isa::RegClass;

namespace {

/// True when `mem` still holds exactly the static program's code words. A
/// checkpoint captured after self-modifying stores restores a different
/// image; the decode cache must not be trusted against it.
bool code_image_matches(const arch::Program& program,
                        const arch::SparseMemory& mem) {
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    if (mem.read_u32(program.code_base + 4 * i) != program.code[i])
      return false;
  }
  return true;
}

}  // namespace

Core::Core(const sim::SimConfig& config, const arch::Program& program)
    : Core(config, program,
           std::shared_ptr<const arch::DecodedProgram>{}) {}

Core::Core(const sim::SimConfig& config, const arch::Program& program,
           std::shared_ptr<const arch::DecodedProgram> decoded)
    : config_(config),
      decoded_(config.fast_path
                   ? (decoded != nullptr
                          ? std::move(decoded)
                          : std::make_shared<const arch::DecodedProgram>(
                                program))
                   : nullptr),
      hierarchy_(config.memory),
      gshare_(config.ghr_bits),
      btb_(),
      ras_(),
      fetch_(config.fetch, mem_, hierarchy_, gshare_, btb_, ras_),
      ros_(config.ros_size),
      lsq_(config.lsq_size),
      fu_pool_(config.fus),
      rename_({config.phys_int, config.phys_fp, config.policy}, *this),
      scheduler_(config.phys_int, config.phys_fp) {
  arch::load_program(program, mem_);
  fetch_.set_pc(program.entry);
  fetch_.set_decoded(decoded_.get());
  if (config.check_oracle)
    oracle_ = std::make_unique<arch::ArchState>(program, decoded_.get());
  if (config.flush_period != 0) next_flush_at_ = config.flush_period;

  // Register the hot pipeline counters (sim/stat_registry.hpp documents the
  // path scheme); everything else is published by finish_registry().
  ctr_.cond_branches = &registry_.counter(sim::kStatCondBranches);
  ctr_.cond_mispredicts = &registry_.counter(sim::kStatCondMispredicts);
  ctr_.indirect_jumps = &registry_.counter(sim::kStatIndirectJumps);
  ctr_.indirect_mispredicts =
      &registry_.counter(sim::kStatIndirectMispredicts);
  ctr_.ros_full = &registry_.counter(sim::kStatStallRos);
  ctr_.lsq_full = &registry_.counter(sim::kStatStallLsq);
  ctr_.checkpoints_full = &registry_.counter(sim::kStatStallCheckpoints);
  ctr_.free_list_empty = &registry_.counter(sim::kStatStallFreeList);
  ctr_.flushes_injected = &registry_.counter(sim::kStatFlushes);
  for (unsigned c = 0; c < core::kNumClasses; ++c) {
    std::string path(sim::kStatRegfilePrefix);
    path += '/';
    path += sim::stat_class_name(c);
    path += "/squash_released";
    ctr_.squash_released[c] = &registry_.counter(path);
    if (config_.stat_stride != 0)
      rename_.rf(static_cast<RC>(c)).tracker.enable_channels(
          config_.stat_stride);
  }
}

Core::Core(const sim::SimConfig& config, const arch::Program& program,
           const arch::Checkpoint& checkpoint, const sim::WarmState* warm,
           std::shared_ptr<const arch::DecodedProgram> decoded)
    : Core(config, program, decoded) {
  // A caller-supplied cache is a vouch that the checkpoint's code image
  // matches it (SampledSimulator tracks this per unit as decoded_ok), so
  // only a core-built cache pays the validation scan below.
  const bool caller_vouched = decoded != nullptr;
  if (warm != nullptr) {
    gshare_ = warm->gshare;
    btb_ = warm->btb;
    ras_ = warm->ras;
    hierarchy_ = warm->hierarchy;
    hierarchy_.reset_stats();
  }
  // The checkpoint's resident set is a superset of the program image (code
  // and initialized data materialize their pages at load), so restoring it
  // wholesale reproduces functional memory state exactly.
  arch::restore_memory(checkpoint, mem_);
  if (decoded_ != nullptr && !caller_vouched &&
      !code_image_matches(program, mem_)) {
    // The checkpoint was captured after self-modifying stores (or carries a
    // different image entirely): the static decode cache is stale for this
    // resume, so drop to the byte-accurate engine wholesale. The scan is
    // one u32 compare per static instruction, paid once per cold resume.
    fetch_.set_decoded(nullptr);
    if (oracle_) oracle_->detach_decoded();
    decoded_.reset();
  }
  fetch_.set_pc(checkpoint.pc);
  halted_ = checkpoint.halted;
  dev_.load(checkpoint.dev);
  icount_base_ = checkpoint.icount;
  // Seed the committed register values into the architectural versions the
  // reset-state rename map points at (identity mapping; all marked written
  // and ready at init, so write_value only installs the values).
  for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
    auto& irf = rename_.rf(RC::Int);
    auto& frf = rename_.rf(RC::Fp);
    irf.write_value(irf.iomt.get(r).phys, checkpoint.int_regs[r], 0);
    frf.write_value(frf.iomt.get(r).phys, checkpoint.fp_regs[r], 0);
  }
  if (oracle_) arch::restore(checkpoint, *oracle_);
}

Core::~Core() = default;

// --- instrumentation ----------------------------------------------------

void Core::attach_probe(sim::Probe* probe) {
  EREL_CHECK(probe != nullptr, "attach_probe(nullptr)");
  probes_.push_back(probe);
  has_probes_ = true;
  probe->on_run_begin(config_, registry_);
}

std::vector<std::unique_ptr<sim::Probe>> Core::attach_probes(
    const std::vector<sim::ProbeSpec>& specs) {
  std::vector<std::unique_ptr<sim::Probe>> instances;
  instances.reserve(specs.size());
  for (const sim::ProbeSpec& spec : specs) {
    instances.push_back(spec.make());
    EREL_CHECK(instances.back() != nullptr, "probe factory '", spec.name,
               "' returned null");
    attach_probe(instances.back().get());
  }
  return instances;
}

// --- PipelineHooks -----------------------------------------------------

core::RenameRec* Core::find_inflight(InstSeq seq) {
  if (!ros_.contains(seq)) return nullptr;
  return &ros_.at(seq).rec;
}

RosEntry* Core::live_entry(InstSeq seq, std::uint64_t uid) {
  if (!ros_.contains(seq)) return nullptr;
  RosEntry& e = ros_.at(seq);
  return e.uid == uid ? &e : nullptr;
}

bool Core::branch_pending_between(InstSeq lo, InstSeq hi) const {
  // pending_branches_ is in decode order: the oldest branch past `lo`
  // decides.
  for (const InstSeq b : pending_branches_) {
    if (b > lo) return b < hi;
  }
  return false;
}

// --- helpers ------------------------------------------------------------

std::uint64_t Core::operand_value(RegClass cls, core::PhysReg p) const {
  return rename_.rf(core::rc_from(cls)).value.at(p);
}

bool Core::operands_ready(const RosEntry& e) const {
  const core::RenameRec& rec = e.rec;
  if (rec.c1 != RegClass::None &&
      !rename_.rf(core::rc_from(rec.c1)).ready[rec.p1])
    return false;
  // Stores issue as soon as the base register is ready: address generation
  // is decoupled from the data (which the LSQ captures when it is produced).
  // Serializing stores on their data would stall every younger load behind
  // the conservative disambiguation rule.
  if (e.inst.is_store()) return true;
  if (rec.c2 != RegClass::None &&
      !rename_.rf(core::rc_from(rec.c2)).ready[rec.p2])
    return false;
  return true;
}

std::uint64_t Core::finish_load_value(Opcode op, std::uint64_t raw) const {
  if (op == Opcode::LW) return static_cast<std::uint64_t>(sext(raw, 32));
  return raw;  // LD/FLD full width, LBU zero-extended by the byte extract
}

void Core::schedule_issue(RosEntry& e) {
  // Park on the *first* operand register found not ready, checked in the
  // same order operands_ready() checks them; whoever drains the park (the
  // wakeup for that register, or the pop-time re-check in phase_issue)
  // re-evaluates the full condition, so waiting on one operand at a time is
  // sufficient: every false->true ready transition is a write_value (or a
  // squashed reuse, which squash_after re-wakes explicitly).
  const core::RenameRec& rec = e.rec;
  if (rec.c1 != RegClass::None &&
      !rename_.rf(core::rc_from(rec.c1)).ready[rec.p1]) {
    scheduler_.park(core::rc_from(rec.c1), rec.p1, {e.seq, e.uid});
    e.sched = SchedResidence::Parked;
    return;
  }
  if (!e.inst.is_store() && rec.c2 != RegClass::None &&
      !rename_.rf(core::rc_from(rec.c2)).ready[rec.p2]) {
    scheduler_.park(core::rc_from(rec.c2), rec.p2, {e.seq, e.uid});
    e.sched = SchedResidence::Parked;
    return;
  }
  scheduler_.make_ready({e.seq, e.uid});
  e.sched = SchedResidence::Ready;
}

void Core::wake_consumers(core::RC cls, core::PhysReg reg) {
  EREL_CHECK(woken_.empty());  // call sites never nest
  scheduler_.wake(cls, reg, woken_);
  for (const SchedTag tag : woken_) {
    // Squashes remove parked tags eagerly, so a woken tag is always a live,
    // still-Dispatched instruction.
    RosEntry* entry = live_entry(tag.seq, tag.uid);
    EREL_CHECK(entry != nullptr && entry->state == EntryState::Dispatched &&
                   entry->sched == SchedResidence::Parked,
               "stale wakeup tag for seq ", tag.seq);
    entry->sched = SchedResidence::None;
    schedule_issue(*entry);
  }
  woken_.clear();
}

// --- per-cycle phases ----------------------------------------------------

void Core::phase_fetch() { fetch_.tick(cycle_); }

void Core::phase_dispatch() {
  unsigned dispatched = 0;
  while (dispatched < config_.decode_width && !fetch_.buffer_empty()) {
    const FetchedInst& fi = fetch_.front();
    const DecodedInst& inst = fi.inst;
    if (ros_.full()) {
      ++*ctr_.ros_full;
      return;
    }
    if (inst.is_mem() && lsq_.full()) {
      ++*ctr_.lsq_full;
      return;
    }
    // The paper's machine copies its Map and LUs Tables at every branch
    // and holds at most max_pending_branches copies (Table 2). Recovery
    // here undoes the squashed renames instead, but the limit stays.
    const bool is_branch = inst.is_cond_branch() || inst.is_indirect_jump();
    if (is_branch &&
        pending_branches_.size() >= config_.max_pending_branches) {
      ++*ctr_.checkpoints_full;
      return;
    }

    const InstSeq seq = ros_.tail_seq();
    RosEntry& e = ros_.push(seq);
    e.uid = next_uid_++;
    e.pc = fi.pc;
    e.inst = inst;
    e.dispatch_cycle = cycle_;
    e.fault = inst.op == Opcode::ILLEGAL;
    // The entry must be registered (find_inflight) before renaming: an
    // instruction can be the last use of its own destination's previous
    // version (e.g. `add r1, r1, r2`) and then carries its own rel bit.
    if (!rename_.try_rename(inst, seq, e.rec, cycle_)) {
      ros_.truncate_after(seq - 1);
      ++*ctr_.free_list_empty;
      return;
    }
    if (inst.is_mem()) lsq_.push(seq, inst.is_store(), inst.mem_bytes());
    e.predicted_target = fi.predicted_target;
    e.ghr_checkpoint = fi.ghr_checkpoint;
    e.ras_checkpoint = fi.ras_checkpoint;
    if (is_branch) pending_branches_.push_back(seq);
    schedule_issue(e);
    fetch_.pop_front();  // frees the buffer slot `fi`/`inst` point into
    ++dispatched;
    if (e.inst.is_halt()) return;  // nothing younger dispatches past a HALT
  }
}

void Core::execute(RosEntry& e) {
  const DecodedInst& inst = e.inst;
  const core::RenameRec& rec = e.rec;
  const std::uint64_t a =
      rec.c1 != RegClass::None ? operand_value(rec.c1, rec.p1) : 0;
  const std::uint64_t b =
      rec.c2 != RegClass::None ? operand_value(rec.c2, rec.p2) : 0;
  const unsigned latency = inst.info().latency;

  if (inst.op == Opcode::ILLEGAL || inst.is_halt() || inst.is_iret()) {
    // Control-state instructions carry no operands and take effect at
    // commit (IRET redirects via exception_flush there).
    completions_.schedule(cycle_ + 1, e.seq, e.uid);
    return;
  }
  if (inst.is_mem()) {
    const std::uint64_t addr = isa::effective_address(a, inst.imm);
    if (addr % inst.mem_bytes() != 0) e.fault = true;  // misaligned
    lsq_.set_address(e.seq, addr);
    if (inst.is_store()) {
      if (rename_.rf(core::rc_from(rec.c2)).ready[rec.p2]) {
        lsq_.set_store_data(e.seq, b);
        completions_.schedule(cycle_ + latency, e.seq, e.uid);
      } else {
        pending_stores_.push_back({e.seq, e.uid});
      }
    } else {
      pending_loads_.push_back({e.seq, e.uid});  // the memory phase takes over
    }
    return;
  }
  if (inst.is_cond_branch()) {
    e.actual_taken = isa::branch_taken(inst.op, a, b);
    e.actual_target =
        e.actual_taken
            ? e.pc + static_cast<std::uint64_t>(std::int64_t{inst.imm} * 4)
            : e.pc + 4;
    completions_.schedule(cycle_ + latency, e.seq, e.uid);
    return;
  }
  if (inst.is_indirect_jump()) {
    e.actual_taken = true;
    e.actual_target =
        (a + static_cast<std::uint64_t>(std::int64_t{inst.imm})) &
        ~std::uint64_t{3};
    e.result = e.pc + 4;
    e.has_result = true;
    completions_.schedule(cycle_ + latency, e.seq, e.uid);
    return;
  }
  if (inst.is_direct_jump()) {
    e.result = e.pc + 4;
    e.has_result = true;
    completions_.schedule(cycle_ + latency, e.seq, e.uid);
    return;
  }
  e.result = isa::exec_alu(inst.op, a, b, inst.imm);
  e.has_result = true;
  completions_.schedule(cycle_ + latency, e.seq, e.uid);
}

void Core::phase_issue() {
  // Only ready-queue members are considered: same candidate set the old
  // full-ROS scan found (every transition into readiness funnels through
  // schedule_issue / wake_consumers), considered in the same oldest-first
  // order, so issue decisions are bit-identical — at a cost proportional to
  // the ready work, not the ROS size.
  std::vector<SchedTag>& ready = scheduler_.ready();
  if (ready.empty()) return;
  fu_pool_.begin_cycle(cycle_);
  std::sort(ready.begin(), ready.end(),
            [](const SchedTag& a, const SchedTag& b) { return a.seq < b.seq; });
  unsigned issued = 0;
  std::size_t keep = 0;
  std::size_t i = 0;
  for (; i < ready.size() && issued < config_.issue_width; ++i) {
    const SchedTag tag = ready[i];
    RosEntry* entry = live_entry(tag.seq, tag.uid);
    EREL_CHECK(entry != nullptr && entry->state == EntryState::Dispatched &&
                   entry->sched == SchedResidence::Ready,
               "stale ready-queue tag for seq ", tag.seq);
    RosEntry& e = *entry;
    if (!operands_ready(e)) {
      // An operand's register was released early and reallocated to a
      // younger definer since this entry became ready: park it again.
      e.sched = SchedResidence::None;
      schedule_issue(e);
      continue;
    }
    if (e.dispatch_cycle >= cycle_) {  // issue earliest next cycle
      ready[keep++] = tag;
      continue;
    }
    const isa::OpInfo& info = e.inst.info();
    if (!fu_pool_.try_issue(info.fu, cycle_, info.latency)) {
      ready[keep++] = tag;  // stays ready; retried next cycle
      continue;
    }
    e.state = EntryState::Issued;
    e.sched = SchedResidence::None;
    e.issue_cycle = cycle_;
    execute(e);
    ++issued;
  }
  for (; i < ready.size(); ++i) ready[keep++] = ready[i];  // past issue width
  ready.resize(keep);
}

void Core::phase_memory() {
  // Stores waiting for their data: capture it the cycle it becomes ready.
  for (std::size_t i = 0; i < pending_stores_.size();) {
    const InstSeq seq = pending_stores_[i].seq;
    RosEntry* entry = live_entry(seq, pending_stores_[i].uid);
    if (entry == nullptr) {  // squashed
      pending_stores_.erase(pending_stores_.begin() +
                            static_cast<std::ptrdiff_t>(i));
      continue;
    }
    const core::RenameRec& rec = entry->rec;
    if (!rename_.rf(core::rc_from(rec.c2)).ready[rec.p2]) {
      ++i;
      continue;
    }
    lsq_.set_store_data(seq, operand_value(rec.c2, rec.p2));
    completions_.schedule(cycle_ + 1, seq, entry->uid);
    pending_stores_.erase(pending_stores_.begin() +
                          static_cast<std::ptrdiff_t>(i));
  }
  for (std::size_t i = 0; i < pending_loads_.size();) {
    const InstSeq seq = pending_loads_[i].seq;
    RosEntry* entry = live_entry(seq, pending_loads_[i].uid);
    if (entry == nullptr) {  // squashed
      pending_loads_.erase(pending_loads_.begin() +
                           static_cast<std::ptrdiff_t>(i));
      continue;
    }
    RosEntry& e = *entry;
    if (!e.fault && dev::Machine::is_mmio(lsq_.get(seq).addr)) {
      // Device loads are uncached, side-effect-free reads that execute only
      // at the retirement head: the head is provably correct-path (an older
      // mispredicted branch must resolve before leaving the ROS), all older
      // stores have committed (no LSQ forwarding to consider), and the
      // retirement boundary is frozen while the load sits at the head, so
      // the value matches the functional oracle's exactly.
      if (seq != ros_.head_seq()) {
        ++i;  // wrong-path or not yet oldest: wait (squash or head arrival)
        continue;
      }
      const LsqEntry& le = lsq_.get(seq);
      const std::uint64_t raw =
          dev_.read(le.addr, le.size, icount_base_ + committed_);
      e.result = finish_load_value(e.inst.op, raw);
      e.has_result = true;
      completions_.schedule(cycle_ + dev::Machine::kMmioLatency, seq, e.uid);
      pending_loads_.erase(pending_loads_.begin() +
                           static_cast<std::ptrdiff_t>(i));
      continue;
    }
    std::uint64_t forwarded = 0;
    const LoadStatus status = lsq_.query_load(seq, &forwarded);
    if (status == LoadStatus::Wait) {
      ++i;
      continue;
    }
    if (status == LoadStatus::Forward) {
      e.result = finish_load_value(e.inst.op, forwarded);
      e.has_result = true;
      completions_.schedule(cycle_ + 1, seq, e.uid);
    } else {  // Memory
      if (e.fault) {
        // Misaligned (wrong-path) load: deliver a dead zero; a committed
        // fault aborts in phase_commit.
        e.result = 0;
        e.has_result = true;
        completions_.schedule(cycle_ + 1, seq, e.uid);
      } else {
        const LsqEntry& le = lsq_.get(seq);
        const unsigned latency = hierarchy_.dload(le.addr);
        const std::uint64_t raw = mem_.read(le.addr, le.size);
        e.result = finish_load_value(e.inst.op, raw);
        e.has_result = true;
        completions_.schedule(cycle_ + latency, seq, e.uid);
      }
    }
    pending_loads_.erase(pending_loads_.begin() +
                         static_cast<std::ptrdiff_t>(i));
  }
}

void Core::resolve_branch(RosEntry& e) {
  const bool is_cond = e.inst.is_cond_branch();
  const bool mispredicted = e.actual_target != e.predicted_target;
  if (is_cond) {
    ++*ctr_.cond_branches;
    if (mispredicted) ++*ctr_.cond_mispredicts;
    gshare_.resolve(e.pc, e.ghr_checkpoint, e.actual_taken, mispredicted);
  } else {
    ++*ctr_.indirect_jumps;
    if (mispredicted) ++*ctr_.indirect_mispredicts;
    btb_.update(e.pc, e.actual_target);
  }

  if (!mispredicted) {
    const auto it = std::find(pending_branches_.begin(),
                              pending_branches_.end(), e.seq);
    EREL_CHECK(it != pending_branches_.end());
    pending_branches_.erase(it);
    rename_.on_branch_confirmed(e.seq, cycle_);
    return;
  }

  // Misprediction: squash younger instructions (which undoes their renames),
  // repair predictors, undo the policies' state, redirect fetch.
  squash_after(e.seq);
  // A branch can itself be the LU instruction of a register version (it
  // reads sources). Any early-release bit on it was scheduled by an NV
  // younger than the branch — squashed just now — so the scheduling must be
  // undone with it (the restored map still holds those versions).
  e.rec.rel_bits = 0;
  if (is_cond) {
    gshare_.repair(e.ghr_checkpoint, e.actual_taken);
  } else {
    gshare_.restore_history(e.ghr_checkpoint);
  }
  ras_.restore(e.ras_checkpoint);
  while (!pending_branches_.empty() && pending_branches_.back() >= e.seq)
    pending_branches_.pop_back();
  rename_.on_branch_mispredicted(e.seq);
  fetch_.redirect(e.actual_target);
}

void Core::complete(RosEntry& e) {
  e.state = EntryState::Completed;
  e.complete_cycle = cycle_;
  if (e.rec.has_dst()) {
    EREL_CHECK(e.has_result, "destination with no result at pc ", e.pc);
    rename_.rf(core::rc_from(e.rec.cd))
        .write_value(e.rec.pd, e.result, cycle_);
    // The wakeup replaces the scan's polling: consumers parked on pd see
    // the new value at this cycle's issue phase, exactly when the old
    // every-cycle readiness scan would have.
    wake_consumers(core::rc_from(e.rec.cd), e.rec.pd);
  }
  if (e.is_cond_or_indirect()) resolve_branch(e);
}

void Core::phase_writeback() {
  while (completions_.has_due(cycle_)) {
    const CompletionEvent ev = completions_.pop();
    RosEntry* entry = live_entry(ev.seq, ev.uid);
    if (entry == nullptr) continue;  // squashed since scheduling
    RosEntry& e = *entry;
    if (e.state != EntryState::Issued) continue;
    complete(e);
    // complete() may squash (mispredict) — the lazy contains() checks above
    // keep subsequent stale events harmless.
  }
}

void Core::phase_commit() {
  unsigned committed_now = 0;
  while (committed_now < config_.commit_width && !ros_.empty()) {
    RosEntry& e = ros_.head();

    // Retirement-boundary interrupt delivery, before the head executes
    // architecturally: `committed_` older instructions have retired and the
    // head is the oldest correct-path instruction, so EPC = head pc mirrors
    // ArchState::step's check at the same boundary. The flush squashes the
    // head and everything younger — genuine wrong-path work the release
    // policies must roll back (map table, free list, LUsT, deferred
    // releases).
    if (!dev_.quiet()) {
      dev_.sync(icount_base_ + committed_);
      if (dev_.deliverable()) {
        const std::uint64_t vec = dev_.deliver(e.pc);
        exception_flush(vec);
        return;
      }
    }

    if (e.state != EntryState::Completed) break;

    // Injected exception: flush everything (including the head) and
    // re-execute from the head's PC — the §4.3 recovery path.
    if (next_flush_at_ != 0 && committed_ >= next_flush_at_ &&
        e.seq != last_flushed_seq_) {
      last_flushed_seq_ = e.seq;
      next_flush_at_ = committed_ + config_.flush_period;
      ++*ctr_.flushes_injected;
      exception_flush(e.pc);
      return;
    }

    if (e.inst.is_halt()) {
      halted_ = true;
      return;  // HALT never retires; the machine stops here
    }
    EREL_CHECK(!e.fault, "committed faulting instruction at pc ", e.pc,
               " (illegal opcode or misaligned access)");

    const LsqEntry* mem_entry = nullptr;
    LsqEntry popped;
    if (e.inst.is_mem()) {
      popped = lsq_.pop_commit(e.seq);
      mem_entry = &popped;
    }
    if (oracle_) check_oracle(e, mem_entry);
    if (e.inst.is_store()) {
      if (dev::Machine::is_mmio(popped.addr)) {
        // Device stores take effect at retirement (uncached, no hierarchy
        // traffic): the same boundary the oracle replayed them at.
        dev_.write(popped.addr, popped.data, popped.size,
                   icount_base_ + committed_);
      } else {
        if (decoded_ != nullptr &&
            decoded_->covers(popped.addr, popped.size)) {
          // Committed store into the code image: the pre-decoded records
          // are stale from here on, so fetch reverts to byte-accurate
          // decode (the oracle notices the same store itself when it
          // replays it).
          fetch_.set_decoded(nullptr);
        }
        mem_.write(popped.addr, popped.data, popped.size);
        hierarchy_.dstore(popped.addr);  // commit-time D-cache update
      }
    }
    rename_.on_commit(e.rec, e.seq, cycle_);
    if (has_probes_) {
      const sim::CommitEvent ev{e.seq,          e.pc,
                                isa::encode(e.inst), e.dispatch_cycle,
                                e.issue_cycle,  e.complete_cycle,
                                cycle_,         &e.inst,
                                &e.rec};
      for (sim::Probe* probe : probes_) probe->on_commit(ev);
    }
    const bool was_iret = e.inst.is_iret();
    ros_.pop_head();
    ++committed_;
    ++committed_now;
    last_commit_cycle_ = cycle_;
    if (was_iret) {
      // IRET retires like any instruction, then redirects to the saved EPC
      // and squashes the younger sequential-path instructions behind it —
      // they were fetched down the fall-through and are genuinely
      // wrong-path (the oracle redirects itself when it replays the IRET).
      exception_flush(dev_.iret());
      return;
    }
  }
}

void Core::check_oracle(const RosEntry& e, const LsqEntry* mem_entry) {
  const arch::StepInfo s = oracle_->step();
  EREL_CHECK(s.pc == e.pc, "oracle divergence: committed pc ", e.pc,
             " but oracle at ", s.pc, " (seq ", e.seq, ")");
  if (e.rec.has_dst()) {
    EREL_CHECK(s.has_dst);
    const std::uint64_t got =
        rename_.rf(core::rc_from(e.rec.cd)).value.at(e.rec.pd);
    EREL_CHECK(got == s.dst_value, "oracle divergence at pc ", e.pc,
               ": dest value ", got, " != ", s.dst_value);
  }
  if (e.inst.is_store()) {
    EREL_CHECK(mem_entry != nullptr && s.is_store);
    EREL_CHECK(mem_entry->addr == s.mem_addr && mem_entry->data == s.store_value,
               "oracle divergence at store pc ", e.pc);
  }
  if (e.inst.is_load()) {
    EREL_CHECK(mem_entry != nullptr && s.is_load);
    EREL_CHECK(mem_entry->addr == s.mem_addr, "oracle divergence at load pc ",
               e.pc);
  }
}

void Core::squash_after(InstSeq boundary) {
  reuse_wakes_.clear();
  for (InstSeq seq = ros_.tail_seq(); seq-- > boundary + 1;) {
    RosEntry& e = ros_.at(seq);
    // A squashed reuse restores the previous version's ready bit (see
    // RenameUnit::on_squash_entry) with no writeback to wake on — collect
    // the register so surviving consumers parked on it are re-woken below.
    if (e.rec.has_dst() && e.rec.reused_prev)
      reuse_wakes_.emplace_back(core::rc_from(e.rec.cd), e.rec.pd);
    rename_.on_squash_entry(e.rec, cycle_);
    if (e.rec.has_dst() && !e.rec.reused_prev)
      ++*ctr_.squash_released[static_cast<unsigned>(core::rc_from(e.rec.cd))];
  }
  ros_.truncate_after(boundary);
  lsq_.squash_after(boundary);
  // Squashed tags leave the scheduler eagerly (before the reuse wakeups, so
  // only survivors are woken); completion events stay and die on the lazy
  // uid check in phase_writeback.
  scheduler_.squash_after(boundary);
  for (const auto& [cls, reg] : reuse_wakes_) wake_consumers(cls, reg);
  std::erase_if(pending_loads_, [boundary](const SchedTag& ev) {
    return ev.seq > boundary;
  });
  std::erase_if(pending_stores_, [boundary](const SchedTag& ev) {
    return ev.seq > boundary;
  });
}

void Core::exception_flush(std::uint64_t resume_pc) {
  for (InstSeq seq = ros_.tail_seq(); seq-- > ros_.head_seq();) {
    rename_.on_squash_entry(ros_.at(seq).rec, cycle_);
  }
  ros_.clear();
  lsq_.clear();
  pending_loads_.clear();
  pending_stores_.clear();
  pending_branches_.clear();
  scheduler_.clear();
  completions_.clear();
  rename_.on_exception_flush(cycle_);
  fetch_.redirect(resume_pc);
}

void Core::tick() {
  ++cycle_;
  phase_commit();
  if (!halted_) {
    phase_writeback();
    phase_memory();
    phase_issue();
    phase_dispatch();
    phase_fetch();

    // Deadlock watchdog: with a non-empty pipeline something must commit
    // within a bounded window (longest chain: FP div + L2 misses).
    if (!ros_.empty() &&
        cycle_ - last_commit_cycle_ > sim::kNoCommitWatchdogCycles) {
      EREL_FATAL("no commit for ", sim::kNoCommitWatchdogCycles,
                 " cycles at cycle ", cycle_, ", head pc ",
                 ros_.head().pc, " state ",
                 static_cast<int>(ros_.head().state));
    }
  }
}

void Core::finish_registry() {
  registry_.counter(sim::kStatCycles).value = cycle_;
  registry_.counter(sim::kStatCommitted).value = committed_;
  registry_.counter(sim::kStatHalted).value = halted_ ? 1 : 0;
  registry_.counter(sim::kStatIcacheStalls).value =
      fetch_.icache_stall_cycles();

  for (unsigned c = 0; c < core::kNumClasses; ++c) {
    const auto cls = static_cast<RC>(c);
    // Leaf names come from the shared tables (sim/stat_registry.hpp), so
    // the publisher and the SimStats view can never drift apart.
    const std::string base =
        std::string(sim::kStatPolicyPrefix) + '/' +
        std::string(sim::stat_class_name(c)) + '/';
    const core::PolicyStats& ps = rename_.policy(cls).stats();
    for (const sim::PolicyStatsField& f : sim::policy_stats_fields())
      registry_.counter(base + std::string(f.leaf)).value = ps.*f.member;

    core::RegTracker& tracker = rename_.rf(cls).tracker;
    tracker.finalize(cycle_);
    const std::string rf =
        std::string(sim::kStatRegfilePrefix) + '/' +
        std::string(sim::stat_class_name(c)) + '/';
    const double integrals[3] = {tracker.empty_integral(),
                                 tracker.ready_integral(),
                                 tracker.idle_integral()};
    for (unsigned i = 0; i < 3; ++i)
      registry_.accum(rf + std::string(sim::kStatOccIntegralLeaves[i]))
          .value = integrals[i];

    if (config_.stat_stride != 0) {
      // Per-stride occupancy: bins hold register-cycles; dividing by the
      // cycles each bucket actually covers (the last one may be partial)
      // yields the average register count in that state over the bucket.
      const std::uint64_t stride = config_.stat_stride;
      const std::uint64_t buckets = (cycle_ + stride - 1) / stride;
      const std::string chan = std::string(sim::kChannelPrefix) +
                               "/occupancy/" +
                               std::string(sim::stat_class_name(c)) + '/';
      const std::vector<double>* const bins[3] = {&tracker.channel_empty(),
                                                  &tracker.channel_ready(),
                                                  &tracker.channel_idle()};
      const char* const leaf[3] = {"empty", "ready", "idle"};
      for (unsigned s = 0; s < 3; ++s) {
        sim::StatRegistry::TimeSeries& ts =
            registry_.channel(chan + leaf[s], stride);
        for (std::uint64_t k = 0; k < buckets; ++k) {
          const double covered = static_cast<double>(
              std::min(stride, cycle_ - k * stride));
          const double sum = k < bins[s]->size() ? (*bins[s])[k] : 0.0;
          ts.push(covered == 0.0 ? 0.0 : sum / covered);
        }
      }
    }
  }

  const auto publish_cache = [this](const char* name,
                                    const mem::CacheStats& cs) {
    const std::string base =
        std::string(sim::kStatCachePrefix) + '/' + name + '/';
    for (const sim::CacheStatsField& f : sim::cache_stats_fields())
      registry_.counter(base + std::string(f.leaf)).value = cs.*f.member;
  };
  publish_cache("l1i", hierarchy_.l1i().stats());
  publish_cache("l1d", hierarchy_.l1d().stats());
  publish_cache("l2", hierarchy_.l2().stats());
}

sim::SimStats Core::run() {
  while (!halted_ && cycle_ < config_.max_cycles &&
         (config_.max_instructions == 0 ||
          committed_ < config_.max_instructions)) {
    tick();
  }
  finish_registry();
  return sim::materialize_sim_stats(registry_);
}

std::uint64_t Core::arch_reg(RC cls, unsigned logical, bool* stale) const {
  const core::Mapping& m = rename_.rf(cls).iomt.get(logical);
  if (stale != nullptr) *stale = m.stale;
  return rename_.rf(cls).value.at(m.phys);
}

bool Core::conservation_holds() const {
  for (unsigned c = 0; c < core::kNumClasses; ++c) {
    const auto& rf = rename_.rf(static_cast<RC>(c));
    if (rf.free_list.size() + rf.tracker.allocated_count() != rf.num_phys)
      return false;
  }
  return true;
}

}  // namespace erel::pipeline
