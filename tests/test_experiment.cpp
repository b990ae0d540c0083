// The Experiment API v2 layer: builder materialization, typed ResultSet
// (aggregates, CSV/JSON sinks), config fingerprinting, and the on-disk
// result cache (hit / miss-then-resume).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "common/table.hpp"
#include "harness/experiment.hpp"
#include "harness/fingerprint.hpp"
#include "harness/harness.hpp"
#include "harness/result_cache.hpp"
#include "harness/results.hpp"
#include "power/probe.hpp"
#include "service/protocol.hpp"
#include "workloads/workloads.hpp"

namespace erel {
namespace {

namespace fs = std::filesystem;
using core::PolicyKind;

/// Tiny base config: capped run so the cache tests simulate milliseconds.
sim::SimConfig tiny_config() {
  sim::SimConfig config;
  config.check_oracle = false;
  config.max_instructions = 20'000;
  return config;
}

/// Self-cleaning unique temp directory per test.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("erel-test-" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

/// Run options with `threads` pool workers and the result cache in `dir`.
harness::RunOptions cached_run(const TempDir& dir, unsigned threads = 0) {
  harness::RunOptions opts;
  opts.threads = threads;
  opts.cache_dir = dir.str();
  return opts;
}

// ---------------------------------------------------------------------------
// Materialization
// ---------------------------------------------------------------------------

TEST(Experiment, MaterializesCrossProductInDocumentedOrder) {
  const auto cells = harness::Experiment()
                         .workloads({"li", "swim"})
                         .policies({PolicyKind::Conventional,
                                    PolicyKind::Extended})
                         .phys_regs({40, 48})
                         .materialize();
  ASSERT_EQ(cells.size(), 8u);
  // Workloads outermost, then policies, then sizes.
  EXPECT_EQ(cells[0].key,
            (harness::ExpKey{"li", PolicyKind::Conventional, 40, ""}));
  EXPECT_EQ(cells[1].key,
            (harness::ExpKey{"li", PolicyKind::Conventional, 48, ""}));
  EXPECT_EQ(cells[2].key,
            (harness::ExpKey{"li", PolicyKind::Extended, 40, ""}));
  EXPECT_EQ(cells[3].key,
            (harness::ExpKey{"li", PolicyKind::Extended, 48, ""}));
  EXPECT_EQ(cells[4].key,
            (harness::ExpKey{"swim", PolicyKind::Conventional, 40, ""}));
  EXPECT_EQ(cells[7].key,
            (harness::ExpKey{"swim", PolicyKind::Extended, 48, ""}));
  // Specs carry the mutated config and a structured tag.
  EXPECT_EQ(cells[3].spec.config.policy, PolicyKind::Extended);
  EXPECT_EQ(cells[3].spec.config.phys_int, 48u);
  EXPECT_EQ(cells[3].spec.config.phys_fp, 48u);
  EXPECT_EQ(cells[3].spec.tag, "li/extended/48");
}

TEST(Experiment, VaryAxesCrossMultiplyIntoVariantLabels) {
  const auto cells =
      harness::Experiment()
          .workloads({"li"})
          .vary("ros", {{"64", [](sim::SimConfig& c) { c.ros_size = 64; }},
                        {"128", [](sim::SimConfig& c) { c.ros_size = 128; }}})
          .vary("lsq", {{"32", [](sim::SimConfig& c) { c.lsq_size = 32; }}})
          .materialize();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].key.variant, "ros=64,lsq=32");
  EXPECT_EQ(cells[1].key.variant, "ros=128,lsq=32");
  EXPECT_EQ(cells[0].spec.config.ros_size, 64u);
  EXPECT_EQ(cells[0].spec.config.lsq_size, 32u);
  EXPECT_EQ(cells[1].spec.config.ros_size, 128u);
}

TEST(Experiment, DefaultsKeepBaseConfigAxes) {
  sim::SimConfig base = tiny_config();
  base.policy = PolicyKind::Basic;
  base.phys_int = base.phys_fp = 72;
  const auto cells =
      harness::Experiment().base(base).workloads({"li"}).materialize();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].key.policy, PolicyKind::Basic);
  EXPECT_EQ(cells[0].key.phys, 72u);
  EXPECT_EQ(cells[0].spec.config.phys_fp, 72u);
}

TEST(Experiment, SamplingRidesAlongOnEveryCell) {
  sim::SamplingConfig sampling;
  sampling.period = 50'000;
  const auto cells = harness::Experiment()
                         .workloads({"li"})
                         .sampling(sampling)
                         .materialize();
  ASSERT_EQ(cells.size(), 1u);
  ASSERT_TRUE(cells[0].spec.sampling.has_value());
  EXPECT_EQ(cells[0].spec.sampling->period, 50'000u);
}

// ---------------------------------------------------------------------------
// Policy name round-trip (CLI parser / JSON sink dependency)
// ---------------------------------------------------------------------------

TEST(PolicyName, RoundTripsThroughParse) {
  for (const PolicyKind kind : core::all_policies())
    EXPECT_EQ(core::parse_policy(core::policy_name(kind)), kind);
}

TEST(PolicyName, AcceptsLongAliases) {
  EXPECT_EQ(core::parse_policy("conventional"), PolicyKind::Conventional);
  EXPECT_EQ(core::parse_policy("ext"), PolicyKind::Extended);
}

TEST(PolicyName, TryParseReturnsNulloptInsteadOfAborting) {
  EXPECT_EQ(core::try_parse_policy("basic"), PolicyKind::Basic);
  EXPECT_EQ(core::try_parse_policy("bogus"), std::nullopt);
  EXPECT_EQ(core::try_parse_policy(""), std::nullopt);
}

TEST(Workloads, FindWorkloadReturnsNullptrOnUnknownNames) {
  EXPECT_NE(workloads::find_workload("li"), nullptr);
  EXPECT_EQ(workloads::find_workload("li")->name, "li");
  EXPECT_EQ(workloads::find_workload("no-such-kernel"), nullptr);
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprint, StableForEqualConfigs) {
  const sim::SimConfig a = tiny_config();
  const sim::SimConfig b = tiny_config();
  EXPECT_EQ(harness::fingerprint_cell("li", a, {}).value,
            harness::fingerprint_cell("li", b, {}).value);
}

TEST(Fingerprint, AnyFieldChangeChangesTheHash) {
  const sim::SimConfig base = tiny_config();
  const std::uint64_t ref = harness::fingerprint_cell("li", base, {}).value;

  const auto mutated = [&](auto&& mutate) {
    sim::SimConfig c = base;
    mutate(c);
    return harness::fingerprint_cell("li", c, {}).value;
  };
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.policy = PolicyKind::Basic; }),
            ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.phys_int = 41; }), ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.phys_fp = 41; }), ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.ros_size = 64; }), ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.lsq_size = 32; }), ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.commit_width = 4; }), ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.max_pending_branches = 8; }),
            ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.ghr_bits = 12; }), ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.fetch.width = 4; }), ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.fus.int_alu = 2; }), ref);
  EXPECT_NE(
      mutated([](sim::SimConfig& c) { c.memory.l1d.size_bytes = 1024; }),
      ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.memory.memory_latency = 99; }),
            ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.max_cycles = 123; }), ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.max_instructions = 1; }), ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.check_oracle = true; }), ref);
  EXPECT_NE(mutated([](sim::SimConfig& c) { c.flush_period = 7; }), ref);
}

/// Every canonical SimConfig field set to a value distinct from its
/// default (cache names stay fixed: they are key labels, not values).
sim::SimConfig maximally_non_default_config() {
  sim::SimConfig config;
  config.policy = PolicyKind::Basic;
  config.phys_int = 41;
  config.phys_fp = 43;
  config.ros_size = 129;
  config.lsq_size = 65;
  config.decode_width = 7;
  config.issue_width = 6;
  config.commit_width = 5;
  config.max_pending_branches = 21;
  config.ghr_bits = 11;
  config.fetch.width = 9;
  config.fetch.max_blocks_per_cycle = 3;
  config.fetch.buffer_capacity = 17;
  config.fus.int_alu = 1;
  config.fus.int_mul = 2;
  config.fus.fp_alu = 3;
  config.fus.fp_mul = 5;
  config.fus.fp_div = 6;
  config.fus.ld_st = 7;
  config.memory.l1i = {"L1I", 64 * 1024, 4, 128, 2};
  config.memory.l1d = {"L1D", 16 * 1024, 8, 32, 3};
  config.memory.l2 = {"L2", 2048 * 1024, 16, 256, 13};
  config.memory.memory_latency = 51;
  config.max_cycles = 123'456'789;
  config.max_instructions = 42;
  config.check_oracle = false;
  config.flush_period = 9;
  return config;
}

TEST(CanonicalFields, MaximallyNonDefaultConfigRoundTrips) {
  // append_canonical_fields -> config_from_canonical_fields must be the
  // identity on every serialized field, even when all of them differ from
  // the defaults the parser starts from.
  const sim::SimConfig config = maximally_non_default_config();
  std::string text;
  sim::append_canonical_fields(config, text);

  std::map<std::string, std::string, std::less<>> fields;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t eq = line.find('=');
    ASSERT_NE(eq, std::string::npos) << line;
    EXPECT_TRUE(fields.emplace(line.substr(0, eq), line.substr(eq + 1)).second)
        << "duplicate canonical field " << line;
  }
  const auto back = sim::config_from_canonical_fields(fields);
  ASSERT_TRUE(back.has_value());

  std::string text2;
  sim::append_canonical_fields(*back, text2);
  EXPECT_EQ(text, text2);

  // Strictness both ways: a missing field and an unknown field are each a
  // parse failure, not a silently defaulted config.
  auto missing = fields;
  missing.erase("ghr_bits");
  EXPECT_FALSE(sim::config_from_canonical_fields(missing).has_value());
  auto extra = fields;
  extra.emplace("no_such_field", "1");
  EXPECT_FALSE(sim::config_from_canonical_fields(extra).has_value());
}

/// Canonical `name=value` text as the field map the parsers take.
std::map<std::string, std::string, std::less<>> canonical_map(
    const std::string& text) {
  std::map<std::string, std::string, std::less<>> fields;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t eq = line.find('=');
    fields.emplace(line.substr(0, eq), line.substr(eq + 1));
  }
  return fields;
}

TEST(CanonicalFields, OracleFlagIsExactlyZeroOrOne) {
  std::string text;
  sim::append_canonical_fields(maximally_non_default_config(), text);
  auto fields = canonical_map(text);
  ASSERT_TRUE(sim::config_from_canonical_fields(fields).has_value());
  fields["check_oracle"] = "1";
  ASSERT_TRUE(sim::config_from_canonical_fields(fields).has_value());
  fields["check_oracle"] = "01";
  EXPECT_FALSE(sim::config_from_canonical_fields(fields).has_value());
}

/// One mutation per canonical SimConfig field. Each keeps a config
/// buildable as long as its caches are direct-mapped (so ++associativity
/// stays a power-of-two set count).
using Mutation = std::pair<const char*, void (*)(sim::SimConfig&)>;
const std::vector<Mutation>& single_field_mutations() {
  static const std::vector<Mutation> mutations = {
      {"policy", [](sim::SimConfig& c) { c.policy = PolicyKind::Extended; }},
      {"phys_int", [](sim::SimConfig& c) { ++c.phys_int; }},
      {"phys_fp", [](sim::SimConfig& c) { ++c.phys_fp; }},
      {"ros_size", [](sim::SimConfig& c) { ++c.ros_size; }},
      {"lsq_size", [](sim::SimConfig& c) { ++c.lsq_size; }},
      {"decode_width", [](sim::SimConfig& c) { ++c.decode_width; }},
      {"issue_width", [](sim::SimConfig& c) { ++c.issue_width; }},
      {"commit_width", [](sim::SimConfig& c) { ++c.commit_width; }},
      {"max_pending_branches",
       [](sim::SimConfig& c) { ++c.max_pending_branches; }},
      {"ghr_bits", [](sim::SimConfig& c) { ++c.ghr_bits; }},
      {"fetch.width", [](sim::SimConfig& c) { ++c.fetch.width; }},
      {"fetch.max_blocks_per_cycle",
       [](sim::SimConfig& c) { ++c.fetch.max_blocks_per_cycle; }},
      {"fetch.buffer_capacity",
       [](sim::SimConfig& c) { ++c.fetch.buffer_capacity; }},
      {"fus.int_alu", [](sim::SimConfig& c) { ++c.fus.int_alu; }},
      {"fus.int_mul", [](sim::SimConfig& c) { ++c.fus.int_mul; }},
      {"fus.fp_alu", [](sim::SimConfig& c) { ++c.fus.fp_alu; }},
      {"fus.fp_mul", [](sim::SimConfig& c) { ++c.fus.fp_mul; }},
      {"fus.fp_div", [](sim::SimConfig& c) { ++c.fus.fp_div; }},
      {"fus.ld_st", [](sim::SimConfig& c) { ++c.fus.ld_st; }},
      {"memory.L1I.size_bytes",
       [](sim::SimConfig& c) { c.memory.l1i.size_bytes *= 2; }},
      {"memory.L1I.associativity",
       [](sim::SimConfig& c) { ++c.memory.l1i.associativity; }},
      {"memory.L1I.line_bytes",
       [](sim::SimConfig& c) { c.memory.l1i.line_bytes *= 2; }},
      {"memory.L1I.hit_latency",
       [](sim::SimConfig& c) { ++c.memory.l1i.hit_latency; }},
      {"memory.L1D.size_bytes",
       [](sim::SimConfig& c) { c.memory.l1d.size_bytes *= 2; }},
      {"memory.L1D.associativity",
       [](sim::SimConfig& c) { ++c.memory.l1d.associativity; }},
      {"memory.L1D.line_bytes",
       [](sim::SimConfig& c) { c.memory.l1d.line_bytes *= 2; }},
      {"memory.L1D.hit_latency",
       [](sim::SimConfig& c) { ++c.memory.l1d.hit_latency; }},
      {"memory.L2.size_bytes",
       [](sim::SimConfig& c) { c.memory.l2.size_bytes *= 2; }},
      {"memory.L2.associativity",
       [](sim::SimConfig& c) { ++c.memory.l2.associativity; }},
      {"memory.L2.line_bytes",
       [](sim::SimConfig& c) { c.memory.l2.line_bytes *= 2; }},
      {"memory.L2.hit_latency",
       [](sim::SimConfig& c) { ++c.memory.l2.hit_latency; }},
      {"memory.memory_latency",
       [](sim::SimConfig& c) { ++c.memory.memory_latency; }},
      {"max_cycles", [](sim::SimConfig& c) { ++c.max_cycles; }},
      {"max_instructions", [](sim::SimConfig& c) { ++c.max_instructions; }},
      {"check_oracle",
       [](sim::SimConfig& c) { c.check_oracle = !c.check_oracle; }},
      {"flush_period", [](sim::SimConfig& c) { ++c.flush_period; }},
  };
  return mutations;
}

TEST(CanonicalFields, SingleFieldDifferencesNeverShareAFingerprint) {
  // One mutation per canonical field; all resulting fingerprints must be
  // pairwise distinct (and distinct from the base). A collision here means
  // two different machines would share a cache entry.
  const std::vector<Mutation>& mutations = single_field_mutations();

  const sim::SimConfig base = maximally_non_default_config();
  std::map<std::uint64_t, const char*> seen;
  seen.emplace(harness::fingerprint_cell("li", base, {}).value, "<base>");
  for (const auto& [name, mutate] : mutations) {
    sim::SimConfig c = base;
    mutate(c);
    const std::uint64_t fp = harness::fingerprint_cell("li", c, {}).value;
    const auto [it, inserted] = seen.emplace(fp, name);
    EXPECT_TRUE(inserted) << "fingerprint collision: " << name << " vs "
                          << it->second;
  }
  EXPECT_EQ(seen.size(), mutations.size() + 1);
}

TEST(Fingerprint, WorkloadIdentityAndSamplingMatter) {
  const sim::SimConfig config = tiny_config();
  const std::uint64_t li = harness::fingerprint_cell("li", config, {}).value;
  EXPECT_NE(harness::fingerprint_cell("go", config, {}).value, li);

  sim::SamplingConfig sampling;
  const std::uint64_t sampled =
      harness::fingerprint_cell("li", config, sampling).value;
  EXPECT_NE(sampled, li);
  sim::SamplingConfig other = sampling;
  other.period = sampling.period + 1;
  EXPECT_NE(harness::fingerprint_cell("li", config, other).value, sampled);
  other = sampling;
  other.seed = 99;
  EXPECT_NE(harness::fingerprint_cell("li", config, other).value, sampled);
}

TEST(Fingerprint, ThreadCountNeverChangesTheHash) {
  // Sharding is bit-identical to serial, so the cache must serve both.
  const sim::SimConfig config = tiny_config();
  sim::SamplingConfig serial;
  serial.threads = 1;
  sim::SamplingConfig sharded = serial;
  sharded.threads = 8;
  EXPECT_EQ(harness::fingerprint_cell("li", config, serial).value,
            harness::fingerprint_cell("li", config, sharded).value);
}

TEST(Fingerprint, ProbeNamesExtendTheHash) {
  // Declaring probes separates cache entries (cells must carry their
  // metrics), while the no-probe hash stays the historical one.
  const sim::SimConfig config = tiny_config();
  const auto bare = harness::fingerprint_cell("li", config, std::nullopt);
  const auto with_probe =
      harness::fingerprint_cell("li", config, std::nullopt, {"rixner"});
  EXPECT_NE(bare.value, with_probe.value);
  EXPECT_EQ(bare.value,
            harness::fingerprint_cell("li", config, std::nullopt, {}).value);
  EXPECT_NE(
      with_probe.value,
      harness::fingerprint_cell("li", config, std::nullopt, {"other"}).value);
}

// ---------------------------------------------------------------------------
// Cache entry serialization round-trip
// ---------------------------------------------------------------------------

harness::ExpEntry fake_entry() {
  harness::ExpEntry e;
  e.key = {"li", PolicyKind::Extended, 48, "lsq=32"};
  e.stats.cycles = 12345;
  e.stats.committed = 6789;
  e.stats.halted = true;
  e.stats.branches.cond_branches = 42;
  e.stats.branches.cond_mispredicts = 7;
  e.stats.stalls.free_list_empty = 11;
  e.stats.policy_stats[0].reuses = 3;
  e.stats.policy_stats[1].early_commit_releases = 5;
  e.stats.occupancy[0].avg_idle = 12.625;
  e.stats.occupancy[1].avg_ready = 0.1;  // not exactly representable
  e.stats.squash_released[1] = 9;
  e.stats.l1d.accesses = 1000;
  e.stats.l1d.misses = 31;
  sim::SampledStats s;
  s.estimate = e.stats;
  s.cpi_mean = 1.23456789012345e-1;
  s.ipc_ci95 = 0.0421;
  s.total_instructions = 999999;
  s.units_planned = 12;
  s.degenerate_windows = 1;
  s.samples = {{0, 100, 200}, {5000, 100, 150}};
  e.sampled = std::move(s);
  e.metrics = {{"power/energy_nj", 1234.5625}, {"power/ed2", 0.1}};
  return e;
}

TEST(ResultCache, SerializedEntryRoundTripsBitExactly) {
  const harness::ExpEntry e = fake_entry();
  const std::string text = harness::serialize_entry(e, "00ff00ff00ff00ff");
  const auto back = harness::parse_entry(text, "00ff00ff00ff00ff", e.key);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->from_cache);
  EXPECT_EQ(back->key, e.key);
  EXPECT_EQ(back->stats.cycles, e.stats.cycles);
  EXPECT_EQ(back->stats.committed, e.stats.committed);
  EXPECT_EQ(back->stats.halted, e.stats.halted);
  EXPECT_EQ(back->stats.branches.cond_mispredicts, 7u);
  EXPECT_EQ(back->stats.policy_stats[0].reuses, 3u);
  EXPECT_EQ(back->stats.policy_stats[1].early_commit_releases, 5u);
  EXPECT_EQ(back->stats.occupancy[0].avg_idle, 12.625);
  EXPECT_EQ(back->stats.occupancy[1].avg_ready, 0.1);  // %.17g: bit-exact
  EXPECT_EQ(back->stats.squash_released[1], 9u);
  EXPECT_EQ(back->stats.l1d.misses, 31u);
  ASSERT_TRUE(back->sampled.has_value());
  EXPECT_EQ(back->sampled->cpi_mean, e.sampled->cpi_mean);
  EXPECT_EQ(back->sampled->ipc_ci95, e.sampled->ipc_ci95);
  EXPECT_EQ(back->sampled->total_instructions, 999999u);
  EXPECT_EQ(back->sampled->units_planned, 12u);
  EXPECT_EQ(back->sampled->samples, e.sampled->samples);
  // The entry holds the estimate once, as its stats lines: the parsed
  // estimate equals the parsed stats in every field.
  harness::ExpEntry estimate_as_stats = *back;
  estimate_as_stats.stats = back->sampled->estimate;
  EXPECT_EQ(harness::serialize_entry(estimate_as_stats, "00ff00ff00ff00ff"),
            harness::serialize_entry(*back, "00ff00ff00ff00ff"));
  EXPECT_EQ(back->sampled->estimate.cycles, back->stats.cycles);
  // Open probe metrics round-trip in order, bit-exactly (%.17g doubles).
  EXPECT_EQ(back->metrics, e.metrics);
  EXPECT_EQ(back->metric("power/energy_nj").value_or(0.0), 1234.5625);
  EXPECT_EQ(back->metric("power/ed2").value_or(0.0), 0.1);
  EXPECT_FALSE(back->metric("no/such").has_value());
}

TEST(ResultCache, CorruptMetricIsAMiss) {
  const harness::ExpEntry e = fake_entry();
  const std::string good = harness::serialize_entry(e, "00ff00ff00ff00ff");
  std::string text = good;
  const std::string from = "metric.power/energy_nj 1234.5625";
  const std::size_t pos = text.find(from);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, from.size(), "metric.power/energy_nj 12x4.5625");
  EXPECT_FALSE(harness::parse_entry(text, "00ff00ff00ff00ff", e.key));
}

TEST(ResultCache, RejectsMismatchesAndTruncation) {
  const harness::ExpEntry e = fake_entry();
  const std::string text = harness::serialize_entry(e, "00ff00ff00ff00ff");
  // Wrong fingerprint (collision / renamed file).
  EXPECT_FALSE(harness::parse_entry(text, "deadbeefdeadbeef", e.key));
  // Wrong key (same fingerprint file, different expected cell).
  harness::ExpKey other = e.key;
  other.phys = 40;
  EXPECT_FALSE(harness::parse_entry(text, "00ff00ff00ff00ff", other));
  // Truncated write (no "end" marker).
  EXPECT_FALSE(harness::parse_entry(text.substr(0, text.size() / 2),
                                    "00ff00ff00ff00ff", e.key));
  // Garbage.
  EXPECT_FALSE(harness::parse_entry("not a cache file", "00", e.key));
}

TEST(ResultCache, VariantLabelAliasIsAHitNotAThrash) {
  // Two vary() labelings can mutate a config into identical values (e.g.
  // "maxbr=20" vs the default). Equal fingerprints imply identical stats,
  // so the entry must serve both keys — rekeyed to the expected cell —
  // instead of the two sweeps evicting each other's entries forever.
  const harness::ExpEntry e = fake_entry();  // stored variant: "lsq=32"
  const std::string text = harness::serialize_entry(e, "00ff00ff00ff00ff");
  harness::ExpKey alias = e.key;
  alias.variant = "";
  const auto hit = harness::parse_entry(text, "00ff00ff00ff00ff", alias);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->key, alias);  // carries the expected key, not the stored one
  EXPECT_EQ(hit->stats.cycles, e.stats.cycles);
}

TEST(ResultCache, CorruptValueIsAMissNotAWrongNumber) {
  const harness::ExpEntry e = fake_entry();
  const std::string good = harness::serialize_entry(e, "00ff00ff00ff00ff");
  const auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    return harness::parse_entry(text, "00ff00ff00ff00ff", e.key);
  };
  // Bit-flip inside an integer: must reject, not parse the prefix.
  EXPECT_FALSE(corrupt("stats.cycles 12345", "stats.cycles 1x345"));
  // Garbage double (12.625 renders exactly under %.17g).
  EXPECT_FALSE(corrupt("stats.int.avg_idle 12.625", "stats.int.avg_idle abc"));
  // Garbage bool.
  EXPECT_FALSE(corrupt("stats.halted 1", "stats.halted yes"));
  // Signs and stray spaces: strtoull would read 2^64-1 or skip the space.
  EXPECT_FALSE(corrupt("stats.cycles 12345", "stats.cycles -1"));
  EXPECT_FALSE(corrupt("stats.cycles 12345", "stats.cycles +12345"));
  EXPECT_FALSE(corrupt("stats.cycles 12345", "stats.cycles  12345"));
  EXPECT_FALSE(corrupt("stats.cycles 12345",
                       "stats.cycles 18446744073709551616"));  // 2^64
  EXPECT_FALSE(corrupt("stats.int.avg_idle 12.625",
                       "stats.int.avg_idle  12.625"));
  // A repeated field line is corruption, not a value to pick between.
  EXPECT_FALSE(corrupt("stats.cycles 12345",
                       "stats.cycles 12345\nstats.cycles 1"));
  EXPECT_FALSE(corrupt("kind sampled", "kind sampled\nkind sampled"));
  // Key, sample count and sample lines: every integer token is strict.
  EXPECT_FALSE(corrupt("key.phys 48", "key.phys 48x"));
  EXPECT_FALSE(corrupt("key.phys 48", "key.phys 4294967344"));  // 2^32+48
  EXPECT_FALSE(corrupt("samples 2", "samples 2junk"));
  EXPECT_FALSE(corrupt("s 0 100 200", "s 0 -10 20"));
  EXPECT_FALSE(corrupt("s 0 100 200", "s 0 100 200 99"));
  EXPECT_FALSE(corrupt("s 0 100 200", "s 0 100"));
  EXPECT_FALSE(corrupt("s 0 100 200", "s 0  100 200"));
  // Control: untouched text still parses.
  EXPECT_TRUE(harness::parse_entry(good, "00ff00ff00ff00ff", e.key));
}

/// `text` is a miss from parse_entry, and load_cache_entry renames the
/// file holding it to <path>.bad.
void expect_quarantined(const TempDir& dir, const std::string& text,
                        const harness::ExpKey& key) {
  EXPECT_FALSE(harness::parse_entry(text, "00ff00ff00ff00ff", key));
  const std::string path =
      harness::cache_entry_path(dir.str(), "00ff00ff00ff00ff");
  std::ofstream(path, std::ios::binary) << text;
  bool quarantined = false;
  EXPECT_FALSE(harness::load_cache_entry(path, "00ff00ff00ff00ff", key,
                                         nullptr, &quarantined));
  EXPECT_TRUE(quarantined);
  EXPECT_TRUE(fs::exists(path + ".bad"));
  EXPECT_FALSE(fs::exists(path));
  fs::remove(path + ".bad");
}

/// `text` with `lines` inserted before its "end" line.
std::string insert_before_end(std::string text, const std::string& lines) {
  text.insert(text.rfind("end\n"), lines);
  return text;
}

TEST(ResultCache, UnknownStatsOrSampledLineIsQuarantined) {
  TempDir dir;
  const harness::ExpEntry e = fake_entry();
  const std::string good = harness::serialize_entry(e, "00ff00ff00ff00ff");
  ASSERT_TRUE(harness::parse_entry(good, "00ff00ff00ff00ff", e.key));
  expect_quarantined(dir, insert_before_end(good, "stats.bogus_field 7\n"),
                     e.key);
  expect_quarantined(dir, insert_before_end(good, "sampled.nonsense 1\n"),
                     e.key);
}

TEST(ResultCache, FullEntryWithSampleLinesIsQuarantined) {
  TempDir dir;
  harness::ExpEntry e = fake_entry();
  e.sampled.reset();
  const std::string good = harness::serialize_entry(e, "00ff00ff00ff00ff");
  ASSERT_TRUE(harness::parse_entry(good, "00ff00ff00ff00ff", e.key));
  expect_quarantined(dir, insert_before_end(good, "samples 1\ns 0 10 20\n"),
                     e.key);
  expect_quarantined(dir, insert_before_end(good, "samples 0\n"), e.key);
  expect_quarantined(dir, insert_before_end(good, "s 0 10 20\n"), e.key);
}

TEST(ResultCache, SampledEntryWithoutSampleLinesIsQuarantined) {
  TempDir dir;
  const harness::ExpEntry e = fake_entry();  // two samples
  const std::string good = harness::serialize_entry(e, "00ff00ff00ff00ff");
  std::string text = good;
  for (const std::string line :
       {"samples 2\n", "s 0 100 200\n", "s 5000 100 150\n"}) {
    const std::size_t at = text.find(line);
    ASSERT_NE(at, std::string::npos) << line;
    text.erase(at, line.size());
  }
  expect_quarantined(dir, text, e.key);
}

// ---------------------------------------------------------------------------
// End-to-end cache behaviour
// ---------------------------------------------------------------------------

TEST(ResultCache, MissThenHitThenResume) {
  TempDir dir;
  const auto build = [&](std::vector<unsigned> sizes) {
    harness::Experiment exp;
    exp.base(tiny_config()).workloads({"li"}).policies(
        {PolicyKind::Conventional}).phys_regs(std::move(sizes));
    return exp;
  };

  // Cold: everything simulates.
  const harness::ResultSet first =
      build({48, 96}).run(cached_run(dir, 2));
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(first.cache_hits(), 0u);
  EXPECT_EQ(first.simulated(), 2u);

  // Warm rerun: zero re-simulations, identical stats.
  const harness::ResultSet second =
      build({48, 96}).run(cached_run(dir, 2));
  EXPECT_EQ(second.cache_hits(), 2u);
  EXPECT_EQ(second.simulated(), 0u);
  for (const unsigned p : {48u, 96u}) {
    const harness::ExpKey key{"li", PolicyKind::Conventional, p, ""};
    EXPECT_EQ(second.stats(key).cycles, first.stats(key).cycles);
    EXPECT_EQ(second.stats(key).committed, first.stats(key).committed);
  }

  // Grown grid (interrupted-sweep resume): only the new cell simulates.
  const harness::ResultSet third =
      build({48, 96, 64}).run(cached_run(dir, 2));
  EXPECT_EQ(third.size(), 3u);
  EXPECT_EQ(third.cache_hits(), 2u);
  EXPECT_EQ(third.simulated(), 1u);
}

TEST(ResultCache, CorruptEntryIsAMissNotAWrongResult) {
  TempDir dir;
  harness::Experiment exp;
  exp.base(tiny_config()).workloads({"li"}).phys_regs({48});
  const harness::ResultSet first = exp.run(cached_run(dir));
  EXPECT_EQ(first.simulated(), 1u);

  // Truncate every cache entry mid-file.
  std::vector<fs::path> entries;
  for (const auto& f : fs::directory_iterator(dir.path)) {
    entries.push_back(f.path());
    std::ifstream in(f.path(), std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    in.close();
    std::ofstream out(f.path(), std::ios::binary | std::ios::trunc);
    out << buf.str().substr(0, buf.str().size() / 3);
  }
  ASSERT_EQ(entries.size(), 1u);
  const harness::ResultSet again = exp.run(cached_run(dir));
  EXPECT_EQ(again.cache_hits(), 0u);
  EXPECT_EQ(again.simulated(), 1u);
  // The truncated entry is quarantined, and the rerun stored a valid one.
  const std::string path = entries[0].string();
  EXPECT_TRUE(fs::exists(path + ".bad"));
  EXPECT_TRUE(harness::load_cache_entry(path, entries[0].stem().string(),
                                        again.entries()[0].key)
                  .has_value());
}

TEST(ResultCache, SampledRunsCacheWithCI) {
  TempDir dir;
  sim::SimConfig config;
  config.check_oracle = false;
  sim::SamplingConfig sampling;
  sampling.period = 30'000;
  sampling.warmup = 1'000;
  sampling.detail = 5'000;
  harness::Experiment exp;
  exp.base(config).workloads({"li"}).phys_regs({64}).sampling(sampling);

  const harness::ResultSet first = exp.run(cached_run(dir));
  ASSERT_TRUE(first.entries()[0].sampled.has_value());
  EXPECT_EQ(first.simulated(), 1u);

  const harness::ResultSet second = exp.run(cached_run(dir));
  EXPECT_EQ(second.cache_hits(), 1u);
  ASSERT_TRUE(second.entries()[0].sampled.has_value());
  EXPECT_EQ(second.entries()[0].sampled->samples,
            first.entries()[0].sampled->samples);
  EXPECT_EQ(second.entries()[0].sampled->ipc_ci95,
            first.entries()[0].sampled->ipc_ci95);
  EXPECT_EQ(second.entries()[0].stats.cycles, first.entries()[0].stats.cycles);
}

// ---------------------------------------------------------------------------
// ResultSet aggregates and sinks
// ---------------------------------------------------------------------------

harness::ResultSet run_small_grid() {
  harness::Experiment exp;
  exp.base(tiny_config())
      .workloads({"li", "go"})
      .policies({PolicyKind::Conventional, PolicyKind::Extended})
      .phys_regs({48});
  harness::RunOptions opts;
  opts.threads = 4;
  return exp.run(opts);
}

TEST(ResultSet, HmeanMatchesHarnessHarmonicMean) {
  const harness::ResultSet rs = run_small_grid();
  const std::vector<std::string> names = {"li", "go"};
  const double ipc_li = rs.ipc({"li", PolicyKind::Conventional, 48, ""});
  const double ipc_go = rs.ipc({"go", PolicyKind::Conventional, 48, ""});
  const double expect = harness::harmonic_mean({{ipc_li, ipc_go}});
  EXPECT_NEAR(rs.hmean_ipc(names, PolicyKind::Conventional, 48), expect,
              1e-12);
  EXPECT_GT(expect, 0.0);
}

TEST(ResultSet, SlicesReportAxesInFirstSeenOrder) {
  const harness::ResultSet rs = run_small_grid();
  EXPECT_EQ(rs.workloads(), (std::vector<std::string>{"li", "go"}));
  EXPECT_EQ(rs.policies(), (std::vector<PolicyKind>{
                               PolicyKind::Conventional,
                               PolicyKind::Extended}));
  EXPECT_EQ(rs.phys_sizes(), (std::vector<unsigned>{48}));
  EXPECT_EQ(rs.variants(), (std::vector<std::string>{""}));
}

TEST(ResultSet, CsvRoundTripsKeysAndValues) {
  TempDir dir;
  const harness::ResultSet rs = run_small_grid();
  const std::string path = (dir.path / "out.csv").string();
  rs.write_csv(path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.substr(0, 29), "workload,policy,phys,variant,");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    // cells are simple (no quoting needed): split on commas.
    std::vector<std::string> cols;
    std::stringstream ss(line);
    std::string col;
    while (std::getline(ss, col, ',')) cols.push_back(col);
    ASSERT_EQ(cols.size(), 13u) << line;
    const harness::ExpKey key{
        cols[0], core::parse_policy(cols[1]),
        static_cast<unsigned>(std::stoul(cols[2])), cols[3]};
    ASSERT_TRUE(rs.contains(key)) << key.to_string();
    EXPECT_EQ(cols[4], "full");
    EXPECT_EQ(std::stoull(cols[6]), rs.stats(key).committed);
    EXPECT_EQ(std::stoull(cols[7]), rs.stats(key).cycles);
    EXPECT_DOUBLE_EQ(std::stod(cols[8]), rs.ipc(key));  // %.17g: exact
    ++rows;
  }
  EXPECT_EQ(rows, rs.size());
}

TEST(ResultSet, JsonSinkEmitsEveryCellWithStats) {
  TempDir dir;
  const harness::ResultSet rs = run_small_grid();
  const std::string path = (dir.path / "out.json").string();
  rs.write_json(path);

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  // Structural sanity: balanced braces/brackets, schema marker, all keys.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"schema\": \"erel-resultset-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"li\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"go\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"extended\""), std::string::npos);
  EXPECT_NE(json.find("\"stalls.free_list_empty\""), std::string::npos);
  char committed[64];
  std::snprintf(committed, sizeof committed, "\"committed\": %llu",
                static_cast<unsigned long long>(
                    rs.entries()[0].stats.committed));
  EXPECT_NE(json.find(committed), std::string::npos);
}

TEST(ResultSet, ProbeMetricsFlowThroughSinksAndCache) {
  TempDir dir;
  const auto build = [&] {
    harness::Experiment exp;
    exp.base(tiny_config())
        .workloads({"li"})
        .policies({PolicyKind::Extended})
        .phys_regs({48})
        .probe("rixner",
               [] { return std::make_unique<power::RixnerProbe>(); });
    return exp;
  };
  const harness::ResultSet rs =
      build().run(cached_run(dir, 1));
  ASSERT_EQ(rs.size(), 1u);
  const harness::ExpEntry& e = rs.entries()[0];
  ASSERT_TRUE(e.metric("power/energy_nj").has_value());
  EXPECT_GT(*e.metric("power/energy_nj"), 0.0);
  ASSERT_TRUE(e.metric("power/ed2").has_value());
  const double cycles = static_cast<double>(e.stats.cycles);
  EXPECT_NEAR(*e.metric("power/ed2"),
              *e.metric("power/energy_nj") * cycles * cycles,
              1e-9 * *e.metric("power/ed2"));
  EXPECT_EQ(rs.metric_names(),
            (std::vector<std::string>{"power/energy_nj", "power/ed2"}));

  // The CSV sink gains the open metric columns, in metric_names() order.
  const std::string csv_path = (dir.path / "metrics.csv").string();
  rs.write_csv(csv_path);
  std::ifstream csv(csv_path);
  std::string header, row;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_NE(header.find(",power/energy_nj,power/ed2"), std::string::npos);
  ASSERT_TRUE(std::getline(csv, row));
  char rendered[64];
  std::snprintf(rendered, sizeof rendered, "%.17g",
                *e.metric("power/energy_nj"));
  EXPECT_NE(row.find(rendered), std::string::npos);

  // The JSON sink carries a per-cell metrics object.
  const std::string json_path = (dir.path / "metrics.json").string();
  rs.write_json(json_path);
  std::stringstream buf;
  buf << std::ifstream(json_path).rdbuf();
  EXPECT_NE(buf.str().find("\"metrics\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"power/energy_nj\": "), std::string::npos);

  // Warm rerun: the cache hit restores the metrics bit-exactly.
  const harness::ResultSet warm =
      build().run(cached_run(dir, 1));
  EXPECT_EQ(warm.cache_hits(), 1u);
  EXPECT_EQ(warm.entries()[0].metrics, e.metrics);

  // A sweep without the probe must not be served the probed entry (the
  // probe name is part of the fingerprint).
  harness::Experiment bare;
  bare.base(tiny_config())
      .workloads({"li"})
      .policies({PolicyKind::Extended})
      .phys_regs({48});
  const harness::ResultSet rs2 =
      bare.run(cached_run(dir, 1));
  EXPECT_EQ(rs2.cache_hits(), 0u);
  EXPECT_TRUE(rs2.entries()[0].metrics.empty());
}

TEST(ResultSet, DuplicateCellIsFatal) {
  harness::ResultSet rs;
  harness::ExpEntry e;
  e.key = {"li", PolicyKind::Conventional, 48, ""};
  rs.add(e);
  EXPECT_DEATH(rs.add(e), "duplicate");
}

TEST(ResultSet, MissingCellIsFatalWithCoordinates) {
  const harness::ResultSet rs;
  EXPECT_DEATH((void)rs.ipc({"li", PolicyKind::Conventional, 48, ""}),
               "li/conv/48");
}

// ---------------------------------------------------------------------------
// Plan groups: run_all plans the sampled cells that share a plan key once
// and measures each of them from that pass
// ---------------------------------------------------------------------------

std::unique_ptr<sim::Probe> make_rixner() {
  return std::make_unique<power::RixnerProbe>();
}

/// Expects a cell from a grouped run to equal run_one of the same spec in
/// everything a sweep observes: each sample, the merged registry (which is
/// not serialized), the metrics, and the serialized cache entry (stats,
/// estimate, moments).
void expect_same_cell(const harness::ExpEntry& got,
                      const harness::RunResult& want) {
  ASSERT_TRUE(got.sampled.has_value());
  ASSERT_TRUE(want.sampled.has_value());
  EXPECT_EQ(got.sampled->samples, want.sampled->samples);
  EXPECT_TRUE(got.sampled->registry == want.sampled->registry);
  EXPECT_EQ(got.metrics, want.metrics);
  const harness::ExpEntry single{got.key, want.stats, want.sampled,
                                 want.metrics};
  EXPECT_EQ(harness::serialize_entry(got, "0123456789abcdef"),
            harness::serialize_entry(single, "0123456789abcdef"));
}

sim::SamplingConfig plan_group_sampling() {
  sim::SamplingConfig s;
  s.period = 40'000;
  s.warmup = 500;
  s.detail = 1'500;
  s.seed = 3;
  return s;
}

TEST(PlanGroups, SingleFieldMutationsMatchPerCellRuns) {
  // The plan key is exactly what the planning pass reads: ghr_bits (the
  // warmed gshare), every memory field (the warmed hierarchy, which a
  // window copies together with its latencies) and fast_path (the shared
  // decode). A key that dropped ghr_bits or a memory field would measure
  // the mutated config from the base's warm state and break the equality
  // below; the same_plan check pins the whole key, fast_path included.
  sim::SimConfig base = tiny_config();
  base.phys_int = base.phys_fp = 48;
  base.flush_period = 500;
  for (mem::CacheConfig* cache :
       {&base.memory.l1i, &base.memory.l1d, &base.memory.l2})
    cache->associativity = 1;
  std::vector<Mutation> mutations = single_field_mutations();
  mutations.emplace_back("fast_path",
                         [](sim::SimConfig& c) { c.fast_path = !c.fast_path; });
  const auto spec = [](const sim::SimConfig& config) {
    return harness::RunSpec{"li", config, "", plan_group_sampling(),
                            {{"rixner", make_rixner}}};
  };
  const auto entry = [](const harness::RunResult& r) {
    return harness::ExpEntry{{"li", r.spec.config.policy,
                              r.spec.config.phys_int, ""},
                             r.stats, r.sampled, r.metrics};
  };
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    sim::SimConfig mutated = base;
    mutate(mutated);
    const std::string_view field = name;
    const bool plan_field = field == "ghr_bits" ||
                            field.starts_with("memory.") ||
                            field == "fast_path";
    EXPECT_EQ(sim::same_plan(base, mutated), !plan_field);
    const std::vector<harness::RunResult> grouped =
        harness::run_all({spec(base), spec(mutated)}, 2);
    ASSERT_EQ(grouped.size(), 2u);
    expect_same_cell(entry(grouped[0]), harness::run_one(spec(base)));
    expect_same_cell(entry(grouped[1]), harness::run_one(spec(mutated)));
  }
}

/// Two kernels (one integer, one FP) x three policies x two sizes with the
/// rixner probe: Experiment::run plans each kernel once for its six cells.
/// Every cell must equal run_one's at pool sizes 1, 2 and 4. Returns the
/// per-cell results.
std::vector<harness::RunResult> expect_grouped_run_equals_run_one(
    const sim::SamplingConfig& sampling) {
  harness::Experiment exp;
  exp.base(tiny_config())
      .workloads({"li", "mgrid"})
      .policies(core::all_policies())
      .phys_regs({40, 64})
      .sampling(sampling)
      .probe("rixner", make_rixner);
  const std::vector<harness::Experiment::Cell> cells = exp.materialize();
  std::vector<harness::RunResult> want;
  for (const harness::Experiment::Cell& cell : cells)
    want.push_back(harness::run_one(cell.spec));
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    harness::RunOptions opts;
    opts.threads = threads;
    const harness::ResultSet rs = exp.run(opts);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      SCOPED_TRACE(cells[i].key.to_string());
      expect_same_cell(rs.at(cells[i].key), want[i]);
    }
  }
  return want;
}

TEST(PlanGroups, ExperimentRunEqualsRunOnePerCell) {
  expect_grouped_run_equals_run_one(plan_group_sampling());
}

TEST(PlanGroups, CiStoppingStaysPerConfig) {
  sim::SamplingConfig s = plan_group_sampling();
  s.period = 20'000;
  s.target_ci = 0.1;
  const std::vector<harness::RunResult> want =
      expect_grouped_run_equals_run_one(s);
  // The target must stop some cells early and not others that share their
  // plan, or this tests nothing.
  const auto stopped = [](const harness::RunResult& r) {
    return r.sampled->samples.size() < r.sampled->units_planned;
  };
  EXPECT_TRUE(std::any_of(want.begin(), want.end(), stopped));
  EXPECT_FALSE(std::all_of(want.begin(), want.end(), stopped));
}

// ---------------------------------------------------------------------------
// TextTable degenerate-series guards
// ---------------------------------------------------------------------------

TEST(TextTable, NonFiniteRendersAsNA) {
  EXPECT_EQ(TextTable::pct(std::numeric_limits<double>::infinity()), "n/a");
  EXPECT_EQ(TextTable::pct(std::numeric_limits<double>::quiet_NaN()), "n/a");
  EXPECT_EQ(TextTable::num(std::numeric_limits<double>::infinity()), "n/a");
  EXPECT_EQ(TextTable::pct(0.125), "12.5%");
}

TEST(TextTable, SpeedupGuardsZeroBaseline) {
  EXPECT_EQ(TextTable::speedup_pct(1.5, 0.0), "n/a");
  EXPECT_EQ(TextTable::speedup_pct(0.0, 1.5), "n/a");
  EXPECT_EQ(TextTable::speedup_pct(1.2, 1.0), "20.0%");
}

TEST(ResultSet, SpeedupVsZeroBaselineIsNaNNotInf) {
  // A ResultSet with a zero-IPC cell: hmean collapses to 0 and speedups
  // must come out NaN (rendered "n/a"), never inf.
  harness::ResultSet rs;
  harness::ExpEntry conv;
  conv.key = {"li", PolicyKind::Conventional, 48, ""};
  conv.stats.cycles = 100;
  conv.stats.committed = 0;  // IPC 0
  rs.add(conv);
  harness::ExpEntry ext;
  ext.key = {"li", PolicyKind::Extended, 48, ""};
  ext.stats.cycles = 100;
  ext.stats.committed = 50;
  rs.add(ext);
  const double s = rs.speedup_vs({"li"}, PolicyKind::Extended,
                                 PolicyKind::Conventional, 48);
  EXPECT_TRUE(std::isnan(s));
  EXPECT_EQ(TextTable::pct(s), "n/a");
  EXPECT_EQ(rs.hmean_ipc({"li"}, PolicyKind::Conventional, 48), 0.0);
}

// ---------------------------------------------------------------------------
// Byte pins: the cache entry, the cell request, the stats reply, the
// fingerprint and every kernel's generated source, captured byte for byte.
// A change to any record format, to the canonical field text or to a
// workload generator must show up here as a deliberate edit.
// ---------------------------------------------------------------------------

TEST(BytePins, FullCacheEntryText) {
  harness::ExpEntry e = fake_entry();
  e.sampled.reset();
  e.metrics.clear();
  EXPECT_EQ(harness::serialize_entry(e, "00ff00ff00ff00ff"),
            R"(erel-result v1
fingerprint 00ff00ff00ff00ff
key.workload li
key.policy extended
key.phys 48
key.variant lsq=32
kind full
stats.cycles 12345
stats.committed 6789
stats.halted 1
stats.branches.cond_branches 42
stats.branches.cond_mispredicts 7
stats.branches.indirect_jumps 0
stats.branches.indirect_mispredicts 0
stats.stalls.ros_full 0
stats.stalls.lsq_full 0
stats.stalls.checkpoints_full 0
stats.stalls.free_list_empty 11
stats.flushes_injected 0
stats.icache_stall_cycles 0
stats.int.conventional_releases 0
stats.int.early_commit_releases 0
stats.int.immediate_releases 0
stats.int.reuses 3
stats.int.branch_confirm_releases 0
stats.int.conditional_schedulings 0
stats.int.fallback_conventional 0
stats.int.stale_suppressed 0
stats.int.avg_empty 0
stats.int.avg_ready 0
stats.int.avg_idle 12.625
stats.int.squash_released 0
stats.fp.conventional_releases 0
stats.fp.early_commit_releases 5
stats.fp.immediate_releases 0
stats.fp.reuses 0
stats.fp.branch_confirm_releases 0
stats.fp.conditional_schedulings 0
stats.fp.fallback_conventional 0
stats.fp.stale_suppressed 0
stats.fp.avg_empty 0
stats.fp.avg_ready 0.10000000000000001
stats.fp.avg_idle 0
stats.fp.squash_released 9
stats.l1i.accesses 0
stats.l1i.misses 0
stats.l1i.writebacks 0
stats.l1d.accesses 1000
stats.l1d.misses 31
stats.l1d.writebacks 0
stats.l2.accesses 0
stats.l2.misses 0
stats.l2.writebacks 0
end
)");
}

TEST(BytePins, SampledCacheEntryTextWithMetrics) {
  EXPECT_EQ(harness::serialize_entry(fake_entry(), "00ff00ff00ff00ff"),
            R"(erel-result v1
fingerprint 00ff00ff00ff00ff
key.workload li
key.policy extended
key.phys 48
key.variant lsq=32
kind sampled
stats.cycles 12345
stats.committed 6789
stats.halted 1
stats.branches.cond_branches 42
stats.branches.cond_mispredicts 7
stats.branches.indirect_jumps 0
stats.branches.indirect_mispredicts 0
stats.stalls.ros_full 0
stats.stalls.lsq_full 0
stats.stalls.checkpoints_full 0
stats.stalls.free_list_empty 11
stats.flushes_injected 0
stats.icache_stall_cycles 0
stats.int.conventional_releases 0
stats.int.early_commit_releases 0
stats.int.immediate_releases 0
stats.int.reuses 3
stats.int.branch_confirm_releases 0
stats.int.conditional_schedulings 0
stats.int.fallback_conventional 0
stats.int.stale_suppressed 0
stats.int.avg_empty 0
stats.int.avg_ready 0
stats.int.avg_idle 12.625
stats.int.squash_released 0
stats.fp.conventional_releases 0
stats.fp.early_commit_releases 5
stats.fp.immediate_releases 0
stats.fp.reuses 0
stats.fp.branch_confirm_releases 0
stats.fp.conditional_schedulings 0
stats.fp.fallback_conventional 0
stats.fp.stale_suppressed 0
stats.fp.avg_empty 0
stats.fp.avg_ready 0.10000000000000001
stats.fp.avg_idle 0
stats.fp.squash_released 9
stats.l1i.accesses 0
stats.l1i.misses 0
stats.l1i.writebacks 0
stats.l1d.accesses 1000
stats.l1d.misses 31
stats.l1d.writebacks 0
stats.l2.accesses 0
stats.l2.misses 0
stats.l2.writebacks 0
sampled.measured.cycles 0
sampled.measured.committed 0
sampled.measured.halted 0
sampled.measured.branches.cond_branches 0
sampled.measured.branches.cond_mispredicts 0
sampled.measured.branches.indirect_jumps 0
sampled.measured.branches.indirect_mispredicts 0
sampled.measured.stalls.ros_full 0
sampled.measured.stalls.lsq_full 0
sampled.measured.stalls.checkpoints_full 0
sampled.measured.stalls.free_list_empty 0
sampled.measured.flushes_injected 0
sampled.measured.icache_stall_cycles 0
sampled.measured.int.conventional_releases 0
sampled.measured.int.early_commit_releases 0
sampled.measured.int.immediate_releases 0
sampled.measured.int.reuses 0
sampled.measured.int.branch_confirm_releases 0
sampled.measured.int.conditional_schedulings 0
sampled.measured.int.fallback_conventional 0
sampled.measured.int.stale_suppressed 0
sampled.measured.int.avg_empty 0
sampled.measured.int.avg_ready 0
sampled.measured.int.avg_idle 0
sampled.measured.int.squash_released 0
sampled.measured.fp.conventional_releases 0
sampled.measured.fp.early_commit_releases 0
sampled.measured.fp.immediate_releases 0
sampled.measured.fp.reuses 0
sampled.measured.fp.branch_confirm_releases 0
sampled.measured.fp.conditional_schedulings 0
sampled.measured.fp.fallback_conventional 0
sampled.measured.fp.stale_suppressed 0
sampled.measured.fp.avg_empty 0
sampled.measured.fp.avg_ready 0
sampled.measured.fp.avg_idle 0
sampled.measured.fp.squash_released 0
sampled.measured.l1i.accesses 0
sampled.measured.l1i.misses 0
sampled.measured.l1i.writebacks 0
sampled.measured.l1d.accesses 0
sampled.measured.l1d.misses 0
sampled.measured.l1d.writebacks 0
sampled.measured.l2.accesses 0
sampled.measured.l2.misses 0
sampled.measured.l2.writebacks 0
sampled.cpi_mean 0.123456789012345
sampled.cpi_stddev 0
sampled.cpi_stderr 0
sampled.ipc_mean 0
sampled.ipc_stddev 0
sampled.ipc_stderr 0
sampled.ipc_ci95 0.042099999999999999
sampled.total_instructions 999999
sampled.measured_instructions 0
sampled.detailed_instructions 0
sampled.units_planned 12
sampled.degenerate_windows 1
samples 2
s 0 100 200
s 5000 100 150
metric.power/energy_nj 1234.5625
metric.power/ed2 0.10000000000000001
end
)");
}

TEST(BytePins, CellRequestText) {
  service::CellRequest request;
  request.id = 77;
  request.workload = "li";
  request.key = {"li", PolicyKind::Basic, 41, "lsq=65,maxbr=21"};
  request.fingerprint_hex = "0123456789abcdef";
  request.config = maximally_non_default_config();
  sim::SamplingConfig sampling;
  sampling.target_ci = 0.02;
  request.sampling = sampling;
  request.probe_names = {"rixner"};
  EXPECT_EQ(service::encode_cell_request(request),
            R"(erel-cell v1
id 77
fp 0123456789abcdef
workload li
key.policy basic
key.phys 41
key.variant lsq=65,maxbr=21
probe rixner
cfg.policy=1
cfg.phys_int=41
cfg.phys_fp=43
cfg.ros_size=129
cfg.lsq_size=65
cfg.decode_width=7
cfg.issue_width=6
cfg.commit_width=5
cfg.max_pending_branches=21
cfg.ghr_bits=11
cfg.fetch.width=9
cfg.fetch.max_blocks_per_cycle=3
cfg.fetch.buffer_capacity=17
cfg.fus.int_alu=1
cfg.fus.int_mul=2
cfg.fus.fp_alu=3
cfg.fus.fp_mul=5
cfg.fus.fp_div=6
cfg.fus.ld_st=7
cfg.memory.L1I.size_bytes=65536
cfg.memory.L1I.associativity=4
cfg.memory.L1I.line_bytes=128
cfg.memory.L1I.hit_latency=2
cfg.memory.L1D.size_bytes=16384
cfg.memory.L1D.associativity=8
cfg.memory.L1D.line_bytes=32
cfg.memory.L1D.hit_latency=3
cfg.memory.L2.size_bytes=2097152
cfg.memory.L2.associativity=16
cfg.memory.L2.line_bytes=256
cfg.memory.L2.hit_latency=13
cfg.memory.memory_latency=51
cfg.max_cycles=123456789
cfg.max_instructions=42
cfg.check_oracle=0
cfg.flush_period=9
sampling.period=100000
sampling.warmup=2000
sampling.detail=10000
sampling.seed=0
sampling.target_ci=0x1.47ae147ae147bp-6
end
)");
}

TEST(BytePins, DaemonStatsText) {
  const service::DaemonStats stats{100, 40, 55, 5, 2, 1, 4, 11, 2};
  EXPECT_EQ(service::encode_stats(stats), R"(requests 100
cache_hits 40
simulated 55
deduped 5
errors 2
inflight 1
cancelled 4
dropped_clients 11
quarantined 2
)");
}

TEST(BytePins, CellFingerprints) {
  sim::SamplingConfig sampling;
  sampling.period = 30'000;
  sampling.warmup = 1'000;
  sampling.detail = 5'000;
  EXPECT_EQ(harness::fingerprint_cell("li", tiny_config(), std::nullopt).hex(),
            "b9982322459f47c7");
  EXPECT_EQ(harness::fingerprint_cell("li", tiny_config(), sampling).hex(),
            "5aa9c8ffe2e41f80");
}

TEST(BytePins, EveryKernelSource) {
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"compress", 0xcaa03bd2b99d0fd2ull},
      {"gcc", 0x40914a6ca0cac877ull},
      {"go", 0x464c166842e2bb21ull},
      {"li", 0xf32ec36425256f9bull},
      {"perl", 0x5b72adb3e200a03dull},
      {"mgrid", 0xdc6b760752c32d49ull},
      {"tomcatv", 0x5704242f40818407ull},
      {"applu", 0x980828c5e4f70af2ull},
      {"swim", 0x84cbde2389f3190full},
      {"hydro2d", 0x9c04d74fdce2f5ceull},
      {"timer", 0x35406a98dd60074bull},
      {"echo", 0x36a36061cfb92d97ull},
  };
  ASSERT_EQ(workloads::registry().size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const workloads::Workload& w = workloads::registry()[i];
    EXPECT_EQ(w.name, pinned[i].first);
    EXPECT_EQ(harness::fnv1a64(w.source), pinned[i].second) << w.name;
  }
}

}  // namespace
}  // namespace erel
