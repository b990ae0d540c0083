#include "core/reg_state.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace erel::core {

RegTracker::RegTracker(unsigned num_phys) : regs_(num_phys) {}

void RegTracker::init_architectural(unsigned logical_count) {
  EREL_CHECK(logical_count <= regs_.size());
  for (unsigned r = 0; r < logical_count; ++r) {
    Version& v = regs_[r];
    v.allocated = true;
    v.written = true;
    v.definer_committed = true;
    v.logical = static_cast<std::uint8_t>(r);
    ++allocated_count_;
  }
}

void RegTracker::on_alloc(PhysReg p, std::uint8_t logical, std::uint64_t cycle) {
  Version& v = regs_.at(p);
  EREL_CHECK(!v.allocated, "alloc of live register ", p);
  const std::uint32_t token = v.token + 1;
  v = Version{};
  v.allocated = true;
  v.alloc_cycle = cycle;
  v.logical = logical;
  v.token = token;
  ++allocated_count_;
}

void RegTracker::on_write(PhysReg p, std::uint64_t cycle) {
  Version& v = regs_.at(p);
  // Wrong-path writes to a version that was squash-released already are
  // filtered by the pipeline; a write here must land on a live version.
  EREL_CHECK(v.allocated, "write to free register ", p);
  if (!v.written) {
    v.written = true;
    v.write_cycle = cycle;
  }
}

void RegTracker::on_definer_commit(PhysReg p, std::uint64_t cycle) {
  Version& v = regs_.at(p);
  EREL_CHECK(v.allocated && v.written);
  v.definer_committed = true;
  v.last_use_commit = std::max(v.last_use_commit, cycle);
}

void RegTracker::on_consumer_commit(PhysReg p, std::uint32_t token,
                                    std::uint64_t cycle) {
  Version& v = regs_.at(p);
  // The safety property of the whole paper: a committed consumer must find
  // the exact version it renamed to still live.
  EREL_CHECK(v.allocated && v.token == token,
             "committed read of released register ", p);
  v.last_use_commit = std::max(v.last_use_commit, cycle);
}

void RegTracker::enable_channels(std::uint64_t stride) {
  EREL_CHECK(stride > 0, "occupancy channel stride must be positive");
  stride_ = stride;
}

void RegTracker::add_span(unsigned state, std::uint64_t begin,
                          std::uint64_t end) {
  double* const integral =
      state == 0 ? &empty_integral_ : state == 1 ? &ready_integral_
                                                 : &idle_integral_;
  *integral += static_cast<double>(end - begin);
  if (stride_ == 0 || end <= begin) return;
  std::vector<double>& bins = bins_[state];
  const std::uint64_t last_bucket = (end - 1) / stride_;
  if (bins.size() <= last_bucket) bins.resize(last_bucket + 1, 0.0);
  for (std::uint64_t k = begin / stride_; k <= last_bucket; ++k) {
    const std::uint64_t lo = std::max(begin, k * stride_);
    const std::uint64_t hi = std::min(end, (k + 1) * stride_);
    bins[k] += static_cast<double>(hi - lo);
  }
}

void RegTracker::attribute(Version& v, std::uint64_t end_cycle, bool squashed) {
  const std::uint64_t t0 = v.alloc_cycle;
  if (!v.written) {
    add_span(0, t0, end_cycle);
    return;
  }
  const std::uint64_t tw = std::min(std::max(v.write_cycle, t0), end_cycle);
  add_span(0, t0, tw);
  if (!v.definer_committed || squashed) {
    // Speculative version that never became architectural: it held a value
    // but no committed last use exists; count the whole span as Ready.
    add_span(1, tw, end_cycle);
    return;
  }
  const std::uint64_t lu =
      std::min(std::max(v.last_use_commit, tw), end_cycle);
  add_span(1, tw, lu);
  add_span(2, lu, end_cycle);
}

void RegTracker::on_release(PhysReg p, std::uint64_t cycle, bool squashed) {
  Version& v = regs_.at(p);
  EREL_CHECK(v.allocated, "release of free register ", p);
  attribute(v, cycle, squashed);
  v.allocated = false;
  EREL_CHECK(allocated_count_ > 0);
  --allocated_count_;
}

void RegTracker::on_reuse(PhysReg p, std::uint8_t logical, std::uint64_t cycle) {
  Version& v = regs_.at(p);
  EREL_CHECK(v.allocated, "reuse of free register ", p);
  attribute(v, cycle, /*squashed=*/false);
  const std::uint32_t token = v.token + 1;
  v = Version{};
  v.allocated = true;
  v.alloc_cycle = cycle;
  v.logical = logical;
  v.token = token;
  // allocated_count_ unchanged: one version ends, another begins.
}

std::uint32_t RegTracker::token(PhysReg p) const { return regs_.at(p).token; }

std::uint8_t RegTracker::logical_of(PhysReg p) const {
  return regs_.at(p).logical;
}

bool RegTracker::is_allocated(PhysReg p) const { return regs_.at(p).allocated; }

void RegTracker::finalize(std::uint64_t cycle) {
  EREL_CHECK(!finalized_, "finalize called twice");
  finalized_ = true;
  for (Version& v : regs_) {
    if (v.allocated) attribute(v, cycle, /*squashed=*/false);
  }
}

Occupancy RegTracker::occupancy(std::uint64_t total_cycles) const {
  EREL_CHECK(finalized_, "occupancy read before finalize");
  Occupancy occ;
  if (total_cycles == 0) return occ;
  const auto cycles = static_cast<double>(total_cycles);
  occ.avg_empty = empty_integral_ / cycles;
  occ.avg_ready = ready_integral_ / cycles;
  occ.avg_idle = idle_integral_ / cycles;
  return occ;
}

RegFileState::RegFileState(RC cls_in, unsigned num_phys_in)
    : cls(cls_in),
      num_phys(num_phys_in),
      free_list(num_phys_in, isa::kNumLogicalRegs),
      tracker(num_phys_in),
      value(num_phys_in, 0),
      ready(num_phys_in, true) {
  EREL_CHECK(num_phys >= isa::kNumLogicalRegs + 1,
             "need at least L+1 physical registers, got ", num_phys);
  tracker.init_architectural(isa::kNumLogicalRegs);
}

PhysReg RegFileState::alloc(std::uint8_t logical, std::uint64_t cycle) {
  const PhysReg p = free_list.allocate();
  tracker.on_alloc(p, logical, cycle);
  ready[p] = false;
  return p;
}

void RegFileState::release(PhysReg p, std::uint64_t cycle, bool squashed) {
  // If the released version is still the architectural mapping of its
  // logical register, an exception flush would restore a mapping to a freed
  // register: flag it stale so the next redefinition does not release it a
  // second time (the stale bit, see core/map_table.hpp).
  const std::uint8_t logical = tracker.logical_of(p);
  if (iomt.get(logical).phys == p && !iomt.get(logical).stale)
    iomt.mark_stale(logical);
  tracker.on_release(p, cycle, squashed);
  free_list.release(p);
}

void RegFileState::write_value(PhysReg p, std::uint64_t v, std::uint64_t cycle) {
  value.at(p) = v;
  ready[p] = true;
  tracker.on_write(p, cycle);
}

}  // namespace erel::core
