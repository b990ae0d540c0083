#include "sim/config.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace erel::sim {

namespace {

// Single enumeration of every result-affecting field, shared by the
// canonical serializer and its parser so the two can never disagree about
// the field list. `Config` is (const) SimConfig; `f` is a record::Writer
// or record::Reader (common/record.hpp), overloaded on the member types.
template <class Config, class Fn>
void canonical_fields(Config& config, Fn&& f) {
  f("policy", config.policy, core::PolicyKind::Extended);
  f("phys_int", config.phys_int);
  f("phys_fp", config.phys_fp);
  f("ros_size", config.ros_size);
  f("lsq_size", config.lsq_size);
  f("decode_width", config.decode_width);
  f("issue_width", config.issue_width);
  f("commit_width", config.commit_width);
  f("max_pending_branches", config.max_pending_branches);
  f("ghr_bits", config.ghr_bits);
  f("fetch.width", config.fetch.width);
  f("fetch.max_blocks_per_cycle", config.fetch.max_blocks_per_cycle);
  f("fetch.buffer_capacity", config.fetch.buffer_capacity);
  f("fus.int_alu", config.fus.int_alu);
  f("fus.int_mul", config.fus.int_mul);
  f("fus.fp_alu", config.fus.fp_alu);
  f("fus.fp_mul", config.fus.fp_mul);
  f("fus.fp_div", config.fus.fp_div);
  f("fus.ld_st", config.fus.ld_st);
  for (auto* cache : {&config.memory.l1i, &config.memory.l1d,
                      &config.memory.l2}) {
    const std::string prefix = "memory." + cache->name + ".";
    f(prefix + "size_bytes", cache->size_bytes);
    f(prefix + "associativity", cache->associativity);
    f(prefix + "line_bytes", cache->line_bytes);
    f(prefix + "hit_latency", cache->hit_latency);
  }
  f("memory.memory_latency", config.memory.memory_latency);
  f("max_cycles", config.max_cycles);
  f("max_instructions", config.max_instructions);
  f("check_oracle", config.check_oracle);
  f("flush_period", config.flush_period);
  // stat_stride is deliberately absent: time-series channels never change
  // simulation results, so the same cached cell serves every stride (and
  // pre-existing fingerprints stay valid). fast_path is absent for the same
  // reason: the decode-once engine is bit-identical to the byte-accurate
  // one (pinned by tests/test_fastpath.cpp), so one cached cell serves both.
}

// Bounds on what a daemon request may ask for. Every table the core sizes
// from a width, count or capacity stays at most kMaxEntries long, and no
// cache holds more than kMaxCacheLines lines, so one request cannot exhaust
// the daemon's memory. Physical register numbers must stay below the
// kNoReg sentinel.
constexpr std::uint64_t kMaxEntries = std::uint64_t{1} << 16;
constexpr std::uint64_t kMaxCacheLines = std::uint64_t{1} << 20;

bool cache_buildable(const mem::CacheConfig& c) {
  // Mirrors mem::Cache's constructor checks, in 64 bits so a huge line
  // size times associativity cannot wrap.
  if (!is_pow2(c.line_bytes) || c.associativity == 0) return false;
  const std::uint64_t set_bytes =
      std::uint64_t{c.line_bytes} * c.associativity;
  return c.size_bytes % set_bytes == 0 && is_pow2(c.size_bytes / set_bytes) &&
         c.size_bytes / c.line_bytes <= kMaxCacheLines;
}

bool buildable(const SimConfig& c) {
  constexpr unsigned kMinPhys = isa::kNumLogicalRegs + 1;
  for (const unsigned phys : {c.phys_int, c.phys_fp})
    if (phys < kMinPhys || phys > core::kNoReg) return false;
  for (const unsigned n :
       {c.ros_size, c.lsq_size, c.decode_width, c.issue_width, c.commit_width,
        c.max_pending_branches, c.fetch.width, c.fetch.max_blocks_per_cycle,
        c.fetch.buffer_capacity, c.fus.int_alu, c.fus.int_mul, c.fus.fp_alu,
        c.fus.fp_mul, c.fus.fp_div, c.fus.ld_st})
    if (n == 0 || n > kMaxEntries) return false;
  if (c.ghr_bits < 1 || c.ghr_bits > 24) return false;  // branch::Gshare
  const mem::HierarchyConfig& m = c.memory;
  if (!cache_buildable(m.l1i) || !cache_buildable(m.l1d) ||
      !cache_buildable(m.l2))
    return false;
  // Between two commits an instruction can wait on a few full misses in a
  // row (a wrong-path fetch, its own fetch, its own load), so one miss
  // must fit in the watchdog window many times over.
  const std::uint64_t miss = std::uint64_t{std::max(m.l1i.hit_latency,
                                                    m.l1d.hit_latency)} +
                             m.l2.hit_latency + m.memory_latency;
  return miss <= kNoCommitWatchdogCycles / 8;
}

}  // namespace

void append_canonical_fields(const SimConfig& config, std::string& out) {
  canonical_fields(config, record::Writer(out, '='));
}

std::optional<SimConfig> config_from_canonical_fields(
    const record::FieldMap& fields) {
  SimConfig config;
  record::Reader read(fields);
  canonical_fields(config, read);
  if (!read.complete() || !buildable(config)) return std::nullopt;
  return config;
}

}  // namespace erel::sim
