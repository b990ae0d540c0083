// Aggregated simulation results: the core's counter block and the typed
// view of its statistics registry. for_each_stat lists every field once,
// with its cache-entry line and registry path; the core's publication, the
// registry view (materialize_sim_stats) and the cache entry all walk it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/release_policy.hpp"
#include "core/reg_state.hpp"
#include "mem/cache.hpp"
#include "sim/stat_registry.hpp"

namespace erel::sim {

struct BranchStats {
  std::uint64_t cond_branches = 0;
  std::uint64_t cond_mispredicts = 0;
  std::uint64_t indirect_jumps = 0;
  std::uint64_t indirect_mispredicts = 0;

  [[nodiscard]] double cond_accuracy() const {
    return cond_branches == 0
               ? 1.0
               : 1.0 - static_cast<double>(cond_mispredicts) / cond_branches;
  }
};

struct DispatchStalls {
  std::uint64_t ros_full = 0;
  std::uint64_t lsq_full = 0;
  std::uint64_t checkpoints_full = 0;
  std::uint64_t free_list_empty = 0;  // the stall early release attacks
};

struct SimStats {
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  bool halted = false;

  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(committed) / cycles;
  }

  BranchStats branches;
  DispatchStalls stalls;
  std::uint64_t flushes_injected = 0;
  std::uint64_t icache_stall_cycles = 0;

  // Per register class (0 = int, 1 = fp).
  core::PolicyStats policy_stats[2];
  core::Occupancy occupancy[2];
  std::uint64_t squash_released[2] = {0, 0};

  mem::CacheStats l1i;
  mem::CacheStats l1d;
  mem::CacheStats l2;
};

/// The one table of run statistics. Calls f(name, path, field) for every
/// SimStats field, in the cache entry's line order: `name` is the entry
/// line ("int.reuses"), `path` the registry entry ("policy/int/reuses"),
/// and `field` a std::uint64_t, bool or double (const when `Stats` is). A
/// registry path holds a counter, except an occupancy average's: it names
/// the additive integral, and the average is integral / cycles. `cycles`
/// comes first, so a reader has it before any average. erel-lint's
/// coverage rule fails a field of these structs that the table misses.
template <class Stats, class F>
void for_each_stat(Stats& s, F&& f) {
  f("cycles", kStatCycles, s.cycles);
  f("committed", kStatCommitted, s.committed);
  f("halted", kStatHalted, s.halted);
  f("branches.cond_branches", kStatCondBranches, s.branches.cond_branches);
  f("branches.cond_mispredicts", kStatCondMispredicts,
    s.branches.cond_mispredicts);
  f("branches.indirect_jumps", kStatIndirectJumps, s.branches.indirect_jumps);
  f("branches.indirect_mispredicts", kStatIndirectMispredicts,
    s.branches.indirect_mispredicts);
  f("stalls.ros_full", kStatStallRos, s.stalls.ros_full);
  f("stalls.lsq_full", kStatStallLsq, s.stalls.lsq_full);
  f("stalls.checkpoints_full", kStatStallCheckpoints,
    s.stalls.checkpoints_full);
  f("stalls.free_list_empty", kStatStallFreeList, s.stalls.free_list_empty);
  f("flushes_injected", kStatFlushes, s.flushes_injected);
  f("icache_stall_cycles", kStatIcacheStalls, s.icache_stall_cycles);

  // "<group>.<line>" in the entry, "<prefix>/<group>/<leaf>" in the
  // registry, where a group is a register class or a cache.
  const auto grouped = [&f](std::string_view group, std::string_view line,
                            std::string_view prefix, std::string_view leaf,
                            auto& field) {
    std::string name(group);
    name += '.';
    name += line;
    std::string path(prefix);
    path += '/';
    path += group;
    path += '/';
    path += leaf;
    f(name, path, field);
  };
  for (unsigned c = 0; c < 2; ++c) {
    const std::string_view cls = stat_class_name(c);
    const auto policy = [&](std::string_view leaf, auto& field) {
      grouped(cls, leaf, kStatPolicyPrefix, leaf, field);
    };
    const auto regfile = [&](std::string_view line, std::string_view leaf,
                             auto& field) {
      grouped(cls, line, kStatRegfilePrefix, leaf, field);
    };
    auto& ps = s.policy_stats[c];
    policy("conventional_releases", ps.conventional_releases);
    policy("early_commit_releases", ps.early_commit_releases);
    policy("immediate_releases", ps.immediate_releases);
    policy("reuses", ps.reuses);
    policy("branch_confirm_releases", ps.branch_confirm_releases);
    policy("conditional_schedulings", ps.conditional_schedulings);
    policy("fallback_conventional", ps.fallback_conventional);
    policy("stale_suppressed", ps.stale_suppressed);
    auto& occ = s.occupancy[c];
    regfile("avg_empty", kStatOccIntegralLeaves[0], occ.avg_empty);
    regfile("avg_ready", kStatOccIntegralLeaves[1], occ.avg_ready);
    regfile("avg_idle", kStatOccIntegralLeaves[2], occ.avg_idle);
    regfile("squash_released", "squash_released", s.squash_released[c]);
  }
  const auto cache = [&](std::string_view level, auto& cs) {
    const auto line = [&](std::string_view leaf, auto& field) {
      grouped(level, leaf, kStatCachePrefix, leaf, field);
    };
    line("accesses", cs.accesses);
    line("misses", cs.misses);
    line("writebacks", cs.writebacks);
  };
  cache("l1i", s.l1i);
  cache("l1d", s.l1d);
  cache("l2", s.l2);
}

}  // namespace erel::sim
