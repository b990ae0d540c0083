#include "core/release_policy.hpp"

#include <deque>

#include "common/log.hpp"

namespace erel::core {

std::string_view policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Conventional: return "conv";
    case PolicyKind::Basic: return "basic";
    case PolicyKind::Extended: return "extended";
  }
  return "?";
}

std::optional<PolicyKind> try_parse_policy(std::string_view name) {
  if (name == "conv" || name == "conventional") return PolicyKind::Conventional;
  if (name == "basic") return PolicyKind::Basic;
  if (name == "extended" || name == "ext") return PolicyKind::Extended;
  return std::nullopt;
}

PolicyKind parse_policy(std::string_view name) {
  const std::optional<PolicyKind> kind = try_parse_policy(name);
  if (!kind)
    EREL_FATAL("unknown release policy '", name,
               "' (expected conv|basic|extended)");
  return *kind;
}

const std::vector<PolicyKind>& all_policies() {
  static const std::vector<PolicyKind> kinds = {
      PolicyKind::Conventional, PolicyKind::Basic, PolicyKind::Extended};
  return kinds;
}

// ---------------------------------------------------------------------------
// Base-class defaults (the conventional scheme uses most of them directly).
// ---------------------------------------------------------------------------

void ReleasePolicy::record_src_use(unsigned, InstSeq, UseKind) {}
void ReleasePolicy::record_dst_use(unsigned, InstSeq) {}

bool ReleasePolicy::can_rename_dest(unsigned, InstSeq, bool) const {
  return !rf_.free_list.empty();
}

void ReleasePolicy::on_commit(const RenameRec&, InstSeq, std::uint64_t) {}
void ReleasePolicy::on_branch_confirmed(InstSeq, std::uint64_t) {}
void ReleasePolicy::on_branch_mispredicted(InstSeq) {}

void ReleasePolicy::on_exception_flush() {}

void ReleasePolicy::release_rel_bits(const RenameRec& rec, std::uint64_t cycle) {
  // An instruction's operand slots can span both register classes (e.g. fsd
  // reads an int base and an fp value); each class's policy releases only
  // the bits whose operand belongs to its own class.
  if (rec.rel_bits == 0) return;
  const auto mine = [this](isa::RegClass cls) {
    return cls != isa::RegClass::None && rc_from(cls) == rf_.cls;
  };
  if ((rec.rel_bits & kRel1) && mine(rec.c1)) {
    rf_.release(rec.p1, cycle, /*squashed=*/false);
    ++stats_.early_commit_releases;
  }
  if ((rec.rel_bits & kRel2) && mine(rec.c2)) {
    rf_.release(rec.p2, cycle, /*squashed=*/false);
    ++stats_.early_commit_releases;
  }
  if ((rec.rel_bits & kRelD) && mine(rec.cd)) {
    rf_.release(rec.pd, cycle, /*squashed=*/false);
    ++stats_.early_commit_releases;
  }
}

bool ReleasePolicy::owns_dst(const RenameRec& rec) const {
  return rec.cd != isa::RegClass::None && rc_from(rec.cd) == rf_.cls;
}

// ---------------------------------------------------------------------------
// Conventional release (§2): old_pd freed when NV commits.
// ---------------------------------------------------------------------------

namespace {

class ConventionalPolicy final : public ReleasePolicy {
 public:
  using ReleasePolicy::ReleasePolicy;

  DestPlan plan_dest(unsigned, InstSeq, RenameRec& rec,
                     std::uint64_t) override {
    // A stale previous version was already freed (early release + exception
    // flush in a prior policy life; unreachable for pure conventional but
    // kept for uniformity): never release it again.
    rec.rel_old = !rec.old_stale;
    if (rec.old_stale) ++stats_.stale_suppressed;
    return {};
  }

  void on_commit(const RenameRec& rec, InstSeq, std::uint64_t cycle) override {
    if (owns_dst(rec) && rec.rel_old && rec.old_pd != kNoReg) {
      rf_.release(rec.old_pd, cycle, /*squashed=*/false);
      ++stats_.conventional_releases;
    }
  }
};

// ---------------------------------------------------------------------------
// Basic mechanism (§3).
// ---------------------------------------------------------------------------

class BasicPolicy : public ReleasePolicy {
 public:
  using ReleasePolicy::ReleasePolicy;

  void record_src_use(unsigned logical, InstSeq seq, UseKind kind) override {
    lus_.record_use(logical, seq, kind);
  }

  void record_dst_use(unsigned logical, InstSeq seq) override {
    lus_.record_use(logical, seq, UseKind::Dst);
  }

  [[nodiscard]] bool can_rename_dest(unsigned rd, InstSeq nv_seq,
                                     bool self_src_use) const override {
    // The reuse case consumes no free register. An instruction that reads
    // its own destination becomes the LU of the previous version (C=0), so
    // reuse is impossible for it.
    if (!self_src_use && classify(rd, nv_seq) == Case::Reuse) return true;
    return !rf_.free_list.empty();
  }

  DestPlan plan_dest(unsigned rd, InstSeq nv_seq, RenameRec& rec,
                     std::uint64_t) override {
    switch (classify(rd, nv_seq)) {
      case Case::StaleSuppressed:
        rec.rel_old = false;
        ++stats_.stale_suppressed;
        return {};
      case Case::Fallback:
        // Case 2 of §3: an unverified branch sits between LU and NV; the
        // basic mechanism falls back to conventional release.
        rec.rel_old = true;
        ++stats_.fallback_conventional;
        return {};
      case Case::ScheduleAtLu: {
        // Case 1, LU in flight: set the matching early-release bit in LU's
        // ROS entry and disconnect NV's conventional release (Figure 6b).
        const LUsEntry entry = lus_.lookup(rd);
        set_lu_rel_bit(entry.seq, rel_bit_for(entry.kind));
        rec.rel_old = false;
        return {};
      }
      case Case::Reuse:
        // Case 1, LU committed: reuse old_pd as NV's destination, leaving
        // the mapping untouched and reclaiming no register (§3.2).
        rec.rel_old = false;
        ++stats_.reuses;
        return {.reuse = true};
    }
    return {};
  }

  void on_commit(const RenameRec& rec, InstSeq seq,
                 std::uint64_t cycle) override {
    // C bit: every LUs entry naming this instruction now reads committed.
    lus_.on_commit(seq);
    // Early releases synchronized with this (LU) commit.
    release_rel_bits(rec, cycle);
    // Conventional path for NVs that could not schedule early.
    if (owns_dst(rec) && rec.rel_old && rec.old_pd != kNoReg) {
      rf_.release(rec.old_pd, cycle, /*squashed=*/false);
      ++stats_.conventional_releases;
    }
  }

  void on_branch_mispredicted(InstSeq branch_seq) override {
    lus_.squash_after(branch_seq);
  }

  void on_exception_flush() override { lus_.reset_architectural(); }

 protected:
  enum class Case { StaleSuppressed, Fallback, ScheduleAtLu, Reuse };

  /// Shared decision logic for can_rename_dest / plan_dest; pure.
  [[nodiscard]] Case classify(unsigned rd, InstSeq nv_seq) const {
    const Mapping& old = rf_.map.get(rd);
    if (old.stale) return Case::StaleSuppressed;
    const LUsEntry& entry = lus_.lookup(rd);
    // Arch entries (post-flush / program start) name seq 0: any pending
    // branch older than NV blocks Case 1.
    if (hooks_.branch_pending_between(entry.seq, nv_seq)) return Case::Fallback;
    return lus_.committed(entry.seq) ? Case::Reuse : Case::ScheduleAtLu;
  }

  /// Ties the release of LU `lu_seq`'s operand `bit` to its commit (RwC0).
  /// The LU is uncommitted, so it must still be in flight.
  void set_lu_rel_bit(InstSeq lu_seq, std::uint8_t bit) {
    RenameRec* lu = hooks_.find_inflight(lu_seq);
    EREL_CHECK(lu != nullptr, "uncommitted LU ", lu_seq,
               " vanished from the pipeline");
    EREL_CHECK((lu->rel_bits & bit) == 0, "double scheduling on LU ", lu_seq);
    lu->rel_bits |= bit;
  }

  LUsTable lus_;
};

// ---------------------------------------------------------------------------
// Extended mechanism (§4).
// ---------------------------------------------------------------------------

class ExtendedPolicy final : public BasicPolicy {
 public:
  using BasicPolicy::BasicPolicy;

  [[nodiscard]] bool can_rename_dest(unsigned rd, InstSeq nv_seq,
                                     bool self_src_use) const override {
    // The immediate-release case frees old_pd before allocation, so it can
    // proceed even with an empty free list. Every other case needs a free
    // register (the extended mechanism never reuses, see §4.2). Self-use
    // forces the commit-synchronized path, which allocates.
    if (!rf_.free_list.empty()) return true;
    return !self_src_use &&
           classify_ext(rd, nv_seq) == ExtCase::ImmediateRelease;
  }

  DestPlan plan_dest(unsigned rd, InstSeq nv_seq, RenameRec& rec,
                     std::uint64_t cycle) override {
    rec.rel_old = false;  // the extended ROS has no old_pd/rel_old release
    switch (classify_ext(rd, nv_seq)) {
      case ExtCase::StaleSuppressed:
        ++stats_.stale_suppressed;
        return {};
      case ExtCase::ImmediateRelease:
        // Non-speculative NV, LU already committed: release right now.
        rf_.release(rec.old_pd, cycle, /*squashed=*/false);
        ++stats_.immediate_releases;
        return {};
      case ExtCase::ScheduleRwc0: {
        // Non-speculative NV, LU in flight: unconditional rel bit (RwC0).
        const LUsEntry entry = lus_.lookup(rd);
        set_lu_rel_bit(entry.seq, rel_bit_for(entry.kind));
        return {};
      }
      case ExtCase::Defer: {
        // Speculative NV (the paper's RwNS or RwC scheduling at TAIL): the
        // release waits until no branch older than NV is pending.
        const LUsEntry entry = lus_.lookup(rd);
        deferred_.push_back(
            {nv_seq, entry.seq, rel_bit_for(entry.kind), rec.old_pd});
        ++stats_.conditional_schedulings;
        return {};
      }
    }
    return {};
  }

  void on_commit(const RenameRec& rec, InstSeq seq,
                 std::uint64_t cycle) override {
    lus_.on_commit(seq);
    // RwC0: unconditional commit-synchronized releases.
    release_rel_bits(rec, cycle);
    EREL_CHECK(!(owns_dst(rec) && rec.rel_old),
               "extended mechanism must never use conventional release");
  }

  void on_branch_confirmed(InstSeq, std::uint64_t cycle) override {
    // Steps 4-6: a deferred release becomes unconditional once no branch
    // older than its NV is pending. The list is in decode order, so the
    // ready records are a prefix.
    while (!deferred_.empty() &&
           !hooks_.branch_pending_between(0, deferred_.front().nv)) {
      const Deferred d = deferred_.front();
      deferred_.pop_front();
      if (lus_.committed(d.lu)) {
        rf_.release(d.reg, cycle, /*squashed=*/false);
        ++stats_.branch_confirm_releases;
        continue;
      }
      // LU still in flight: the release joins its rel bits (RwC -> RwC0).
      set_lu_rel_bit(d.lu, d.bit);
    }
  }

  void on_branch_mispredicted(InstSeq branch_seq) override {
    BasicPolicy::on_branch_mispredicted(branch_seq);
    // Step 3: NVs younger than the branch were squashed with their records.
    while (!deferred_.empty() && deferred_.back().nv > branch_seq)
      deferred_.pop_back();
  }

  void on_exception_flush() override {
    BasicPolicy::on_exception_flush();
    deferred_.clear();
  }

  [[nodiscard]] std::size_t relque_population() const override {
    return deferred_.size();
  }

 private:
  enum class ExtCase {
    StaleSuppressed,
    ImmediateRelease,
    ScheduleRwc0,
    Defer,
  };

  /// A speculative NV's release. `reg` is NV's old_pd, which is the LU's
  /// register in the operand slot `bit` names.
  struct Deferred {
    InstSeq nv;
    InstSeq lu;
    std::uint8_t bit;
    PhysReg reg;
  };

  std::deque<Deferred> deferred_;  // decode order of nv

  [[nodiscard]] ExtCase classify_ext(unsigned rd, InstSeq nv_seq) const {
    const Mapping& old = rf_.map.get(rd);
    if (old.stale) return ExtCase::StaleSuppressed;
    const LUsEntry& entry = lus_.lookup(rd);
    // The release must survive only if NV survives, so it is conditional on
    // every pending branch older than NV. At NV's rename that is every
    // pending branch (Step 2).
    if (hooks_.branch_pending_between(0, nv_seq)) return ExtCase::Defer;
    return lus_.committed(entry.seq) ? ExtCase::ImmediateRelease
                                     : ExtCase::ScheduleRwc0;
  }
};

}  // namespace

std::unique_ptr<ReleasePolicy> make_policy(PolicyKind kind, RegFileState& rf,
                                           PipelineHooks& hooks) {
  switch (kind) {
    case PolicyKind::Conventional:
      return std::make_unique<ConventionalPolicy>(rf, hooks);
    case PolicyKind::Basic:
      return std::make_unique<BasicPolicy>(rf, hooks);
    case PolicyKind::Extended:
      return std::make_unique<ExtendedPolicy>(rf, hooks);
  }
  EREL_FATAL("unknown policy kind");
}

}  // namespace erel::core
