// RenameUnit: cross-class renaming, commit plumbing, squash/un-reuse,
// mispredict and exception recovery — driven directly with a fake pipeline
// (complementing the policy-level tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <iterator>
#include <map>
#include <random>

#include "core/rename_unit.hpp"

namespace erel::core {
namespace {

class FakeHooks : public PipelineHooks {
 public:
  RenameRec* find_inflight(InstSeq seq) override {
    const auto it = recs.find(seq);
    return it == recs.end() ? nullptr : &it->second;
  }
  bool branch_pending_between(InstSeq lo, InstSeq hi) const override {
    for (const InstSeq b : pending)
      if (b > lo && b < hi) return true;
    return false;
  }
  std::map<InstSeq, RenameRec> recs;
  std::vector<InstSeq> pending;
};

isa::DecodedInst make_inst(isa::Opcode op, unsigned rd, unsigned rs1,
                           unsigned rs2) {
  isa::DecodedInst inst;
  inst.op = op;
  inst.rd = static_cast<std::uint8_t>(rd);
  inst.rs1 = static_cast<std::uint8_t>(rs1);
  inst.rs2 = static_cast<std::uint8_t>(rs2);
  return inst;
}

class RenameUnitTest : public testing::Test {
 protected:
  void init(PolicyKind kind, unsigned phys_int = 40, unsigned phys_fp = 40) {
    unit = std::make_unique<RenameUnit>(
        RenameConfig{phys_int, phys_fp, kind}, hooks);
  }

  RenameRec& rename(const isa::DecodedInst& inst, InstSeq seq,
                    std::uint64_t cycle = 0) {
    RenameRec& rec = hooks.recs[seq];
    rec = RenameRec{};
    EXPECT_TRUE(unit->try_rename(inst, seq, rec, cycle));
    return rec;
  }

  FakeHooks hooks;
  std::unique_ptr<RenameUnit> unit;
};

TEST_F(RenameUnitTest, MixedClassOperandsRouteToTheirFiles) {
  init(PolicyKind::Conventional);
  // fsd f3, 0(r5): int base source + fp data source, no destination.
  const auto fsd = make_inst(isa::Opcode::FSD, 0, 5, 3);
  RenameRec& rec = rename(fsd, 1);
  EXPECT_EQ(rec.c1, isa::RegClass::Int);
  EXPECT_EQ(rec.c2, isa::RegClass::Fp);
  EXPECT_EQ(rec.p1, unit->rf(RC::Int).map.get(5).phys);
  EXPECT_EQ(rec.p2, unit->rf(RC::Fp).map.get(3).phys);
  EXPECT_FALSE(rec.has_dst());
}

TEST_F(RenameUnitTest, CrossClassDestination) {
  init(PolicyKind::Conventional);
  // cvtid r7, f2: fp source, int destination.
  RenameRec& rec = rename(make_inst(isa::Opcode::CVTID, 7, 2, 0), 1);
  EXPECT_EQ(rec.cd, isa::RegClass::Int);
  EXPECT_EQ(rec.c1, isa::RegClass::Fp);
  EXPECT_EQ(unit->rf(RC::Int).map.get(7).phys, rec.pd);
  EXPECT_NE(rec.pd, rec.old_pd);
}

TEST_F(RenameUnitTest, IntR0NeverRenamed) {
  init(PolicyKind::Conventional);
  RenameRec& rec = rename(make_inst(isa::Opcode::ADDI, 0, 3, 0), 1);
  EXPECT_FALSE(rec.has_dst());
  EXPECT_EQ(unit->rf(RC::Int).map.get(0).phys, 0);
}

TEST_F(RenameUnitTest, RenameStallLeavesNoSideEffects) {
  init(PolicyKind::Conventional, /*phys_int=*/33);  // one rename register
  rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1);
  EXPECT_TRUE(unit->rf(RC::Int).free_list.empty());
  // Second rename must fail without touching the map.
  const PhysReg before = unit->rf(RC::Int).map.get(6).phys;
  RenameRec rec;
  EXPECT_FALSE(
      unit->try_rename(make_inst(isa::Opcode::ADDI, 6, 3, 0), 2, rec, 0));
  EXPECT_EQ(unit->rf(RC::Int).map.get(6).phys, before);
  EXPECT_EQ(unit->rename_stalls(RC::Int), 1u);
}

TEST_F(RenameUnitTest, MispredictRestoresBothClassesAndDropsYounger) {
  init(PolicyKind::Basic);
  const PhysReg int5 = unit->rf(RC::Int).map.get(5).phys;
  const PhysReg fp3 = unit->rf(RC::Fp).map.get(3).phys;
  hooks.pending.push_back(1);
  hooks.pending.push_back(2);
  // Wrong path: redefine r5 (int) and f3 (fp).
  RenameRec& a = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 3);
  RenameRec& b = rename(make_inst(isa::Opcode::FADD, 3, 1, 2), 4);
  EXPECT_NE(unit->rf(RC::Int).map.get(5).phys, int5);
  // Squash back to branch 1, youngest first: free wrong-path destinations
  // and put the previous mappings back.
  unit->on_squash_entry(b, 5);
  unit->on_squash_entry(a, 5);
  hooks.recs.erase(3);
  hooks.recs.erase(4);
  hooks.pending.clear();
  unit->on_branch_mispredicted(1);
  EXPECT_EQ(unit->rf(RC::Int).map.get(5).phys, int5);
  EXPECT_EQ(unit->rf(RC::Fp).map.get(3).phys, fp3);
  // Conservation after recovery.
  EXPECT_EQ(unit->rf(RC::Int).free_list.size() +
                unit->rf(RC::Int).tracker.allocated_count(),
            40u);
}

TEST_F(RenameUnitTest, ReusedSeqAfterMispredictNamesTheRightLu) {
  // The ROS reuses the seqs of squashed instructions. The restored LUs
  // Table must not name them, and the C bit derived from the commit
  // frontier must read the reused seq as uncommitted.
  for (const PolicyKind kind : {PolicyKind::Basic, PolicyKind::Extended}) {
    SCOPED_TRACE(std::string(policy_name(kind)));
    hooks = FakeHooks{};
    init(kind);
    const auto addi = [](unsigned rd, unsigned rs1) {
      return make_inst(isa::Opcode::ADDI, rd, rs1, 0);
    };
    RenameRec& def = rename(addi(5, 3), 1);  // v1 of r5
    RenameRec& lu = rename(addi(6, 5), 2);   // LU of v1
    rename(make_inst(isa::Opcode::BEQ, 0, 1, 2), 3);
    hooks.pending.push_back(3);
    // Wrong path: younger uses of r5 at seqs 4 and 5.
    RenameRec& w4 = rename(addi(7, 5), 4);
    RenameRec& w5 = rename(addi(8, 5), 5);
    unit->on_squash_entry(w5, 6);
    unit->on_squash_entry(w4, 6);
    hooks.recs.erase(4);
    hooks.recs.erase(5);
    hooks.pending.clear();
    unit->on_branch_mispredicted(3);
    // A new NV of r5 at the reused seq 4 schedules on LU 2.
    RenameRec& nv = rename(addi(5, 3), 4);
    EXPECT_EQ(lu.rel_bits, kRel1);
    EXPECT_FALSE(nv.rel_old);
    // Commit 1..2: LU 2's other entry (its destination r6) now reads C=1.
    unit->rf(RC::Int).write_value(def.pd, 1, 7);
    unit->on_commit(def, 1, 8);
    unit->rf(RC::Int).write_value(lu.pd, 1, 8);
    const PhysReg r6 = lu.pd;
    unit->on_commit(lu, 2, 9);
    hooks.recs.erase(1);
    hooks.recs.erase(2);
    RenameRec& next = rename(addi(6, 3), 5);
    if (kind == PolicyKind::Basic) {
      EXPECT_TRUE(next.reused_prev);
      EXPECT_EQ(next.pd, r6);
    } else {
      EXPECT_TRUE(unit->rf(RC::Int).free_list.is_free(r6));
    }
    // The reused seq 4 itself has not committed: r5's next NV schedules on
    // it instead of releasing.
    RenameRec& again = rename(addi(5, 3), 6);
    EXPECT_EQ(hooks.recs.at(4).rel_bits, kRelD);
    EXPECT_FALSE(again.reused_prev);
  }
}

TEST_F(RenameUnitTest, SquashRestoresAStalePreviousMapping) {
  init(PolicyKind::Basic);
  RegFileState& rf = unit->rf(RC::Int);
  rf.map.mark_stale(5);  // as an exception flush copies it from the IOMT
  const PhysReg arch5 = rf.map.get(5).phys;
  hooks.pending.push_back(1);
  RenameRec& nv = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 2);
  EXPECT_TRUE(nv.old_stale);
  EXPECT_FALSE(rf.map.get(5).stale);  // a fresh version is never stale
  unit->on_squash_entry(nv, 3);
  hooks.recs.erase(2);
  hooks.pending.clear();
  unit->on_branch_mispredicted(1);
  EXPECT_EQ(rf.map.get(5).phys, arch5);
  EXPECT_TRUE(rf.map.get(5).stale);
}

/// One RenameUnit driven the way Core drives it. Physical register names
/// depend on the FIFO free list's order, which wrong-path allocations
/// perturb, so the lane names each live register by its version: the seq
/// of the instruction whose rename created it (kArch + r for the initial
/// mapping of logical r).
struct Lane {
  static constexpr std::uint64_t kArch = std::uint64_t{1} << 40;
  static constexpr unsigned kPhys = 40;

  explicit Lane(PolicyKind kind)
      : unit(RenameConfig{kPhys, kPhys, kind}, hooks) {
    for (auto& v : version) {
      v.assign(kPhys, 0);
      for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) v[r] = kArch + r;
    }
  }

  [[nodiscard]] std::uint64_t ver(isa::RegClass cls, PhysReg p) const {
    if (cls == isa::RegClass::None) return 0;
    return version[static_cast<unsigned>(rc_from(cls))].at(p);
  }

  /// A record with physical names replaced by versions. old_pd counts at
  /// rename only, and only when not stale: a released register may be
  /// recycled, in a different order in each lane.
  [[nodiscard]] std::vector<std::uint64_t> view(const RenameRec& r,
                                                bool at_rename) const {
    return {r.r1,
            r.r2,
            r.rd,
            static_cast<std::uint64_t>(r.c1),
            static_cast<std::uint64_t>(r.c2),
            static_cast<std::uint64_t>(r.cd),
            ver(r.c1, r.p1),
            ver(r.c2, r.p2),
            ver(r.cd, r.pd),
            at_rename && !r.old_stale ? ver(r.cd, r.old_pd) : 0,
            r.old_stale,
            r.rel_old,
            r.reused_prev,
            r.rel_bits};
  }

  /// Both Map Tables (a stale mapping names a released register, so only
  /// its stale bit counts), plus free-list sizes and deferred releases.
  [[nodiscard]] std::vector<std::uint64_t> state() const {
    std::vector<std::uint64_t> out;
    for (unsigned c = 0; c < kNumClasses; ++c) {
      const RegFileState& rf = unit.rf(static_cast<RC>(c));
      for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
        const Mapping& m = rf.map.get(r);
        out.push_back(m.stale ? 0 : version[c].at(m.phys));
        out.push_back(m.stale);
      }
      out.push_back(rf.free_list.size());
      out.push_back(unit.policy(static_cast<RC>(c)).relque_population());
    }
    return out;
  }

  /// False on a free-list stall, which leaves no trace.
  bool rename(const isa::DecodedInst& inst, InstSeq seq) {
    RenameRec& rec = hooks.recs[seq];
    rec = RenameRec{};
    if (!unit.try_rename(inst, seq, rec, seq)) {
      hooks.recs.erase(seq);
      return false;
    }
    if (rec.has_dst())
      version[static_cast<unsigned>(rc_from(rec.cd))].at(rec.pd) = seq;
    if (inst.is_cond_branch()) hooks.pending.push_back(seq);
    return true;
  }

  void commit(InstSeq seq, std::uint64_t cycle) {
    RenameRec& rec = hooks.recs.at(seq);
    if (rec.has_dst())
      unit.rf(rc_from(rec.cd)).write_value(rec.pd, seq, cycle);
    unit.on_commit(rec, seq, cycle);
    hooks.recs.erase(seq);
  }

  void confirm(InstSeq branch, std::uint64_t cycle) {
    std::erase(hooks.pending, branch);
    unit.on_branch_confirmed(branch, cycle);
  }

  /// Core::squash_after: youngest first.
  void squash_after(InstSeq boundary, std::uint64_t cycle) {
    while (!hooks.recs.empty() && hooks.recs.rbegin()->first > boundary) {
      unit.on_squash_entry(hooks.recs.rbegin()->second, cycle);
      hooks.recs.erase(std::prev(hooks.recs.end()));
    }
  }

  /// Core::resolve_branch's mispredict path.
  void mispredict(InstSeq branch, std::uint64_t cycle) {
    squash_after(branch, cycle);
    hooks.recs.at(branch).rel_bits = 0;
    std::erase_if(hooks.pending, [&](InstSeq b) { return b >= branch; });
    unit.on_branch_mispredicted(branch);
  }

  /// Core::exception_flush.
  void flush(std::uint64_t cycle) {
    squash_after(0, cycle);
    hooks.pending.clear();
    unit.on_exception_flush(cycle);
  }

  FakeHooks hooks;
  RenameUnit unit;
  std::array<std::vector<std::uint64_t>, kNumClasses> version;
};

isa::DecodedInst random_inst(std::mt19937_64& rng) {
  // Eight logical registers per class, so redefinitions, self-uses such as
  // `add r1, r1, r1` and cross-class operands are all frequent.
  const auto reg = [&] { return static_cast<unsigned>(rng() % 8); };
  switch (rng() % 8) {
    case 0: return make_inst(isa::Opcode::BEQ, 0, reg(), reg());
    case 1: return make_inst(isa::Opcode::ADDI, reg(), reg(), 0);
    case 2: return make_inst(isa::Opcode::FADD, reg(), reg(), reg());
    case 3: return make_inst(isa::Opcode::FLD, reg(), reg(), 0);
    case 4: return make_inst(isa::Opcode::FSD, 0, reg(), reg());
    case 5: return make_inst(isa::Opcode::CVTID, reg(), reg(), 0);
    default: return make_inst(isa::Opcode::ADD, reg(), reg(), reg());
  }
}

TEST(RenameUnitRecovery, WrongPathBurstsLeaveNoTrace) {
  // `clean` sees only the correct path. `noisy` sees the same stream, but
  // after some branches it also renames a burst of wrong-path instructions
  // and then recovers as Core does when the branch mispredicts. Where
  // `noisy` recovers, `clean` confirms the branch instead. Every record,
  // rel bit, mapping and free-list size must match. Occasional exception
  // flushes hit both lanes and put stale bits into the Map Tables; the
  // flushed instructions then re-execute, as they do in Core, so that a
  // stale (dead) version is redefined before anything reads it.
  for (const PolicyKind kind : all_policies()) {
    SCOPED_TRACE(std::string(policy_name(kind)));
    Lane clean(kind);
    Lane noisy(kind);
    std::mt19937_64 rng(23);
    std::deque<isa::DecodedInst> upcoming;  // program order
    std::map<InstSeq, isa::DecodedInst> in_flight;
    InstSeq next = 1;
    std::uint64_t cycle = 0;
    std::uint64_t wrong_path = 0;
    std::uint64_t flushes = 0;
    const auto commit_head = [&] {
      const InstSeq head = in_flight.begin()->first;
      if (std::ranges::count(clean.hooks.pending, head) != 0) {
        clean.confirm(head, cycle);
        noisy.confirm(head, cycle);
      }
      ASSERT_EQ(clean.view(clean.hooks.recs.at(head), false),
                noisy.view(noisy.hooks.recs.at(head), false))
          << "at commit of seq " << head;
      clean.commit(head, cycle);
      noisy.commit(head, cycle);
      in_flight.erase(head);
    };
    while (next < 4000) {
      ++cycle;
      if (in_flight.size() >= 16) {
        ASSERT_NO_FATAL_FAILURE(commit_head());
      }
      if (upcoming.empty()) upcoming.push_back(random_inst(rng));
      const isa::DecodedInst inst = upcoming.front();
      const bool ok = clean.rename(inst, next);
      ASSERT_EQ(ok, noisy.rename(inst, next)) << "seq " << next;
      if (!ok) {  // free-list stall: commit, then retry the instruction
        ASSERT_FALSE(in_flight.empty()) << "stall with nothing in flight";
        ASSERT_NO_FATAL_FAILURE(commit_head());
        continue;
      }
      ASSERT_EQ(clean.view(clean.hooks.recs.at(next), true),
                noisy.view(noisy.hooks.recs.at(next), true))
          << "at rename of seq " << next;
      upcoming.pop_front();
      const InstSeq seq = next++;
      in_flight[seq] = inst;
      if (inst.is_cond_branch() && rng() % 2 == 0) {
        InstSeq wrong = seq + 1;
        for (std::uint64_t n = rng() % 12; n-- > 0; ++wrong)
          if (!noisy.rename(random_inst(rng), wrong)) break;
        wrong_path += wrong - (seq + 1);
        noisy.mispredict(seq, cycle);
        clean.confirm(seq, cycle);
      }
      if (rng() % 2 == 0 && !in_flight.empty()) {
        ASSERT_NO_FATAL_FAILURE(commit_head());
      }
      if (rng() % 4 == 0 && !clean.hooks.pending.empty()) {
        const InstSeq b =
            clean.hooks.pending[rng() % clean.hooks.pending.size()];
        clean.confirm(b, cycle);
        noisy.confirm(b, cycle);
      }
      if (rng() % 97 == 0) {
        clean.flush(cycle);
        noisy.flush(cycle);
        for (auto it = in_flight.rbegin(); it != in_flight.rend(); ++it)
          upcoming.push_front(it->second);
        in_flight.clear();
        ++flushes;
      }
      ASSERT_EQ(clean.state(), noisy.state()) << "after seq " << seq;
    }
    EXPECT_GT(wrong_path, 500u);
    EXPECT_GT(flushes, 10u);
  }
}

TEST_F(RenameUnitTest, CommitUpdatesIomtAndTracksConsumers) {
  init(PolicyKind::Conventional);
  RenameRec& def = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1);
  unit->rf(RC::Int).write_value(def.pd, 42, 1);
  unit->on_commit(def, 1, 2);
  EXPECT_EQ(unit->rf(RC::Int).iomt.get(5).phys, def.pd);

  RenameRec& use = rename(make_inst(isa::Opcode::ADD, 6, 5, 5), 2);
  unit->rf(RC::Int).write_value(use.pd, 84, 3);
  unit->on_commit(use, 2, 4);  // consumer-commit checks pass
  EXPECT_EQ(unit->rf(RC::Int).iomt.get(6).phys, use.pd);
}

TEST_F(RenameUnitTest, SquashedReuseStaysAllocated) {
  init(PolicyKind::Basic);
  // First redefinition of r5 reuses the architectural register.
  RenameRec& nv = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1);
  ASSERT_TRUE(nv.reused_prev);
  const PhysReg p = nv.pd;
  unit->on_squash_entry(nv, 2);
  // The storage still backs the architectural mapping: not freed.
  EXPECT_FALSE(unit->rf(RC::Int).free_list.is_free(p));
  EXPECT_TRUE(unit->rf(RC::Int).tracker.is_allocated(p));
  EXPECT_TRUE(unit->rf(RC::Int).ready[p]);  // dead value readable
}

TEST_F(RenameUnitTest, ExceptionFlushRestoresFromIomt) {
  init(PolicyKind::Extended);
  // Commit one redefinition (architectural), leave a second in flight.
  RenameRec& first = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1, 1);
  unit->rf(RC::Int).write_value(first.pd, 1, 1);
  unit->on_commit(first, 1, 2);
  const PhysReg committed = first.pd;
  RenameRec& second = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 2, 3);
  EXPECT_NE(unit->rf(RC::Int).map.get(5).phys, committed);
  // Flush: squash the in-flight one, restore the architectural map.
  unit->on_squash_entry(second, 4);
  hooks.recs.clear();
  unit->on_exception_flush(4);
  EXPECT_EQ(unit->rf(RC::Int).map.get(5).phys, committed);
  EXPECT_EQ(unit->rf(RC::Int).free_list.size() +
                unit->rf(RC::Int).tracker.allocated_count(),
            40u);
}

}  // namespace
}  // namespace erel::core
