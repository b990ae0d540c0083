#include "sim/stat_registry.hpp"

#include "common/log.hpp"
#include "sim/stats.hpp"

namespace erel::sim {

namespace {

const char* kind_name(const StatRegistry::Entry& e) {
  struct Visitor {
    const char* operator()(const StatRegistry::Counter&) { return "counter"; }
    const char* operator()(const StatRegistry::Accum&) { return "accum"; }
    const char* operator()(const StatRegistry::TimeSeries&) {
      return "timeseries";
    }
  };
  return std::visit(Visitor{}, e);
}

}  // namespace

template <class Kind>
Kind& StatRegistry::get_or_create(std::string_view path) {
  EREL_CHECK(!path.empty(), "empty registry path");
  const auto it = entries_.find(path);
  if (it == entries_.end()) {
    auto [inserted, ok] = entries_.emplace(std::string(path), Kind{});
    (void)ok;
    return std::get<Kind>(inserted->second);
  }
  Kind* kind = std::get_if<Kind>(&it->second);
  EREL_CHECK(kind != nullptr, "registry path '", std::string(path),
             "' already registered as ", kind_name(it->second));
  return *kind;
}

StatRegistry::Counter& StatRegistry::counter(std::string_view path) {
  return get_or_create<Counter>(path);
}

StatRegistry::Accum& StatRegistry::accum(std::string_view path) {
  return get_or_create<Accum>(path);
}

StatRegistry::TimeSeries& StatRegistry::channel(std::string_view path,
                                                std::uint64_t stride) {
  EREL_CHECK(stride > 0, "channel '", std::string(path),
             "' needs a positive stride");
  TimeSeries& ts = get_or_create<TimeSeries>(path);
  if (ts.stride == 0) ts.stride = stride;
  EREL_CHECK(ts.stride == stride, "channel '", std::string(path),
             "' stride mismatch: ", ts.stride, " vs ", stride);
  return ts;
}

namespace {

template <class Kind>
const Kind* find_kind(
    const std::map<std::string, StatRegistry::Entry, std::less<>>& entries,
    std::string_view path) {
  const auto it = entries.find(path);
  if (it == entries.end()) return nullptr;
  return std::get_if<Kind>(&it->second);
}

}  // namespace

const StatRegistry::Counter* StatRegistry::find_counter(
    std::string_view path) const {
  return find_kind<Counter>(entries_, path);
}

const StatRegistry::Accum* StatRegistry::find_accum(
    std::string_view path) const {
  return find_kind<Accum>(entries_, path);
}

const StatRegistry::TimeSeries* StatRegistry::find_channel(
    std::string_view path) const {
  return find_kind<TimeSeries>(entries_, path);
}

std::uint64_t StatRegistry::counter_value(std::string_view path) const {
  const Counter* c = find_counter(path);
  return c == nullptr ? 0 : c->value;
}

double StatRegistry::accum_value(std::string_view path) const {
  const Accum* a = find_accum(path);
  return a == nullptr ? 0.0 : a->value;
}

void StatRegistry::merge_from(const StatRegistry& other) {
  for (const auto& [path, entry] : other.entries_) {
    const auto it = entries_.find(path);
    if (it == entries_.end()) {
      entries_.emplace(path, entry);
      continue;
    }
    EREL_CHECK(it->second.index() == entry.index(), "registry merge: '", path,
               "' is ", kind_name(it->second), " here but ", kind_name(entry),
               " in the merged-in registry");
    struct Merger {
      const Entry& theirs;
      void operator()(Counter& mine) {
        mine.value += std::get<Counter>(theirs).value;
      }
      void operator()(Accum& mine) {
        mine.value += std::get<Accum>(theirs).value;
      }
      void operator()(TimeSeries& mine) {
        const auto& ts = std::get<TimeSeries>(theirs);
        if (mine.stride == 0) mine.stride = ts.stride;
        EREL_CHECK(ts.stride == 0 || ts.points.empty() ||
                       mine.stride == ts.stride,
                   "registry merge: channel stride mismatch ", mine.stride,
                   " vs ", ts.stride);
        mine.points.insert(mine.points.end(), ts.points.begin(),
                           ts.points.end());
      }
    };
    std::visit(Merger{entry}, it->second);
  }
}

std::string_view stat_class_name(unsigned cls) {
  return cls == 0 ? "int" : "fp";
}

const std::array<PolicyStatsField, 8>& policy_stats_fields() {
  using PS = core::PolicyStats;
  static const std::array<PolicyStatsField, 8> fields = {{
      {"conventional_releases", &PS::conventional_releases},
      {"early_commit_releases", &PS::early_commit_releases},
      {"immediate_releases", &PS::immediate_releases},
      {"reuses", &PS::reuses},
      {"branch_confirm_releases", &PS::branch_confirm_releases},
      {"conditional_schedulings", &PS::conditional_schedulings},
      {"fallback_conventional", &PS::fallback_conventional},
      {"stale_suppressed", &PS::stale_suppressed},
  }};
  return fields;
}

const std::array<CacheStatsField, 3>& cache_stats_fields() {
  using CS = mem::CacheStats;
  static const std::array<CacheStatsField, 3> fields = {{
      {"accesses", &CS::accesses},
      {"misses", &CS::misses},
      {"writebacks", &CS::writebacks},
  }};
  return fields;
}

namespace {

std::string class_path(std::string_view prefix, unsigned cls,
                       std::string_view leaf) {
  std::string path(prefix);
  path += '/';
  path += stat_class_name(cls);
  path += '/';
  path += leaf;
  return path;
}

}  // namespace

SimStats materialize_sim_stats(const StatRegistry& reg) {
  SimStats s;
  s.cycles = reg.counter_value(kStatCycles);
  s.committed = reg.counter_value(kStatCommitted);
  s.halted = reg.counter_value(kStatHalted) != 0;
  s.flushes_injected = reg.counter_value(kStatFlushes);
  s.icache_stall_cycles = reg.counter_value(kStatIcacheStalls);

  s.branches.cond_branches = reg.counter_value(kStatCondBranches);
  s.branches.cond_mispredicts = reg.counter_value(kStatCondMispredicts);
  s.branches.indirect_jumps = reg.counter_value(kStatIndirectJumps);
  s.branches.indirect_mispredicts = reg.counter_value(kStatIndirectMispredicts);

  s.stalls.ros_full = reg.counter_value(kStatStallRos);
  s.stalls.lsq_full = reg.counter_value(kStatStallLsq);
  s.stalls.checkpoints_full = reg.counter_value(kStatStallCheckpoints);
  s.stalls.free_list_empty = reg.counter_value(kStatStallFreeList);

  for (unsigned c = 0; c < 2; ++c) {
    for (const PolicyStatsField& f : policy_stats_fields())
      s.policy_stats[c].*f.member =
          reg.counter_value(class_path(kStatPolicyPrefix, c, f.leaf));

    s.squash_released[c] =
        reg.counter_value(class_path(kStatRegfilePrefix, c, "squash_released"));

    // Same arithmetic as RegTracker::occupancy: integral / double(cycles).
    core::Occupancy& occ = s.occupancy[c];
    if (s.cycles != 0) {
      const auto cycles = static_cast<double>(s.cycles);
      double* const avgs[3] = {&occ.avg_empty, &occ.avg_ready, &occ.avg_idle};
      for (unsigned i = 0; i < 3; ++i)
        *avgs[i] = reg.accum_value(class_path(kStatRegfilePrefix, c,
                                              kStatOccIntegralLeaves[i])) /
                   cycles;
    }
  }

  const auto cache = [&](std::string_view name, mem::CacheStats& cs) {
    const std::string prefix =
        std::string(kStatCachePrefix) + '/' + std::string(name) + '/';
    for (const CacheStatsField& f : cache_stats_fields())
      cs.*f.member = reg.counter_value(prefix + std::string(f.leaf));
  };
  cache("l1i", s.l1i);
  cache("l1d", s.l1d);
  cache("l2", s.l2);
  return s;
}

}  // namespace erel::sim
