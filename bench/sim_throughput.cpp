// Simulator throughput benchmark: the decode-cache A/B behind
// BENCH_sim_throughput.json, whose fast/legacy ratios CI's perf-trend job
// compares against the committed report. The sweeps' own benchmark is
// perfbench/ (BENCHMARK.json).
//
// For every kernel in the suite it measures
//   - functional MIPS, fast engine   (DecodedProgram: ArchState::run's
//     threaded loop over the pre-decoded micro-ops)
//   - functional MIPS, legacy engine (no DecodedProgram: ArchState::step's
//     byte-accurate fetch + decode of every instruction; both engines share
//     SparseMemory's page-pointer TLB)
//   - full-pipeline KIPS with and without the decode cache (oracle on, the
//     default verification configuration)
// and emits a machine-readable JSON report plus a human-readable table.
//
// JSON schema (BENCH_sim_throughput.json, schema_version 1):
//   { "benchmark": "sim_throughput", "schema_version": 1, "smoke": bool,
//     "kernels": [ { "name", "func_instructions", "func_mips_fast",
//                    "func_mips_legacy", "func_speedup",
//                    "pipeline_instructions", "pipeline_kips_fast",
//                    "pipeline_kips_legacy", "pipeline_speedup" }, ... ],
//     "aggregate": { "func_mips_fast_hmean", "func_mips_legacy_hmean",
//                    "func_speedup", "pipeline_kips_fast_hmean",
//                    "pipeline_kips_legacy_hmean", "pipeline_speedup" } }
//
// --smoke shrinks the suite/caps so CI can execute the binary on every PR;
// in that mode any non-positive throughput value fails the run (exit 1).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/arch_state.hpp"
#include "arch/decoded_program.hpp"
#include "bench_util.hpp"
#include "common/parse.hpp"
#include "pipeline/core.hpp"
#include "sim/config.hpp"
#include "workloads/workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct KernelResult {
  std::string name;
  std::uint64_t func_insts = 0;
  double func_mips_fast = 0.0;
  double func_mips_legacy = 0.0;
  std::uint64_t pipe_insts = 0;
  double pipe_kips_fast = 0.0;
  double pipe_kips_legacy = 0.0;

  [[nodiscard]] double func_speedup() const {
    return func_mips_legacy > 0.0 ? func_mips_fast / func_mips_legacy : 0.0;
  }
  [[nodiscard]] double pipe_speedup() const {
    return pipe_kips_legacy > 0.0 ? pipe_kips_fast / pipe_kips_legacy : 0.0;
  }
};

/// Functional-oracle throughput. Repeats whole runs (fresh ArchState each
/// time — architectural state mutates) until `min_seconds` of measured work
/// accumulates, so short kernels still time meaningfully.
double measure_functional(const erel::arch::Program& program,
                          const erel::arch::DecodedProgram* decoded,
                          std::uint64_t max_steps,
                          double min_seconds, std::uint64_t* insts_out) {
  std::uint64_t total_insts = 0;
  double total_seconds = 0.0;
  do {
    erel::arch::ArchState state(program, decoded);
    const Clock::time_point start = Clock::now();
    state.run(max_steps == 0 ? ~std::uint64_t{0} : max_steps);
    total_seconds += seconds_since(start);
    total_insts += state.instructions_executed();
  } while (total_seconds < min_seconds);
  if (insts_out != nullptr) *insts_out = total_insts;
  return total_seconds > 0.0
             ? static_cast<double>(total_insts) / total_seconds / 1e6
             : 0.0;
}

/// Full detailed-pipeline throughput (oracle co-simulation on — the
/// configuration every verification run pays for).
double measure_pipeline(const erel::arch::Program& program, bool fast_path,
                        std::uint64_t max_instructions,
                        std::uint64_t* insts_out) {
  erel::sim::SimConfig config;
  config.fast_path = fast_path;
  config.max_instructions = max_instructions;
  erel::pipeline::Core core(config, program);
  const Clock::time_point start = Clock::now();
  const erel::sim::SimStats stats = core.run();
  const double elapsed = seconds_since(start);
  if (insts_out != nullptr) *insts_out = stats.committed;
  return elapsed > 0.0 ? static_cast<double>(stats.committed) / elapsed / 1e3
                       : 0.0;
}

double hmean(const std::vector<KernelResult>& results,
             double KernelResult::*field) {
  double denom = 0.0;
  for (const KernelResult& r : results) {
    if (r.*field <= 0.0) return 0.0;
    denom += 1.0 / (r.*field);
  }
  return results.empty() ? 0.0 : static_cast<double>(results.size()) / denom;
}

void write_json(const std::string& path, const std::vector<KernelResult>& rs,
                bool smoke) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"sim_throughput\",\n"
               "  \"schema_version\": 1,\n  \"smoke\": %s,\n"
               "  \"kernels\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const KernelResult& r = rs[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"func_instructions\": %llu, "
        "\"func_mips_fast\": %.3f, \"func_mips_legacy\": %.3f, "
        "\"func_speedup\": %.3f, \"pipeline_instructions\": %llu, "
        "\"pipeline_kips_fast\": %.3f, \"pipeline_kips_legacy\": %.3f, "
        "\"pipeline_speedup\": %.3f}%s\n",
        r.name.c_str(), static_cast<unsigned long long>(r.func_insts),
        r.func_mips_fast, r.func_mips_legacy, r.func_speedup(),
        static_cast<unsigned long long>(r.pipe_insts), r.pipe_kips_fast,
        r.pipe_kips_legacy, r.pipe_speedup(),
        i + 1 < rs.size() ? "," : "");
  }
  const double ff = hmean(rs, &KernelResult::func_mips_fast);
  const double fl = hmean(rs, &KernelResult::func_mips_legacy);
  const double pf = hmean(rs, &KernelResult::pipe_kips_fast);
  const double pl = hmean(rs, &KernelResult::pipe_kips_legacy);
  std::fprintf(f,
               "  ],\n  \"aggregate\": {\"func_mips_fast_hmean\": %.3f, "
               "\"func_mips_legacy_hmean\": %.3f, \"func_speedup\": %.3f, "
               "\"pipeline_kips_fast_hmean\": %.3f, "
               "\"pipeline_kips_legacy_hmean\": %.3f, "
               "\"pipeline_speedup\": %.3f}\n}\n",
               ff, fl, fl > 0.0 ? ff / fl : 0.0, pf, pl,
               pl > 0.0 ? pf / pl : 0.0);
  std::fclose(f);
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options] [workload...]\n"
      "  workload...            subset of registry kernels (default: all"
      " twelve)\n"
      "  --json=PATH            JSON report path (default"
      " BENCH_sim_throughput.json)\n"
      "  --func-insts=N         cap functional runs at N instructions"
      " (0 = to HALT)\n"
      "  --pipeline-insts=N     detailed-pipeline instructions per kernel\n"
      "  --min-seconds=X        minimum measured time per functional"
      " engine\n"
      "  --smoke                tiny CI gate: short caps, li+swim only,\n"
      "                         fails on any non-positive throughput\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_sim_throughput.json";
  std::uint64_t func_insts = 0;        // 0 = run to HALT
  std::uint64_t pipeline_insts = 0;    // 0 = mode default
  double min_seconds = -1.0;           // <0 = mode default
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&arg](std::string_view flag) {
      return std::string(arg.substr(flag.size() + 1));
    };
    const auto number = [&](std::string_view flag, std::uint64_t& field) {
      const std::optional<std::uint64_t> v = erel::parse_u64(value(flag));
      if (v) field = *v;
      return v.has_value();
    };
    const auto bad = [&](std::string_view flag) {
      std::fprintf(stderr, "%s: bad value in %.*s\n", argv[0],
                   static_cast<int>(flag.size()), flag.data());
      usage(argv[0]);
      return 2;
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.starts_with("--json=")) {
      json_path = value("--json");
    } else if (arg.starts_with("--func-insts=")) {
      if (!number("--func-insts", func_insts)) return bad(arg);
    } else if (arg.starts_with("--pipeline-insts=")) {
      if (!number("--pipeline-insts", pipeline_insts)) return bad(arg);
    } else if (arg.starts_with("--min-seconds=")) {
      const std::optional<double> v = erel::parse_double(value("--min-seconds"));
      if (!v || !std::isfinite(*v) || *v < 0.0) return bad(arg);
      min_seconds = *v;
    } else if (arg.starts_with("--")) {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], argv[i]);
      usage(argv[0]);
      return 2;
    } else {
      names.emplace_back(arg);
    }
  }
  for (const std::string& name : names) {
    if (erel::workloads::find_workload(name) == nullptr) {
      std::fprintf(stderr, "%s: unknown workload '%s'\n", argv[0],
                   name.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  // Checked before measuring: an unwritable report would otherwise fail
  // only after every kernel ran.
  if (!erel::benchutil::cli::can_write(json_path)) {
    std::fprintf(stderr, "%s: cannot write --json '%s'\n", argv[0],
                 json_path.c_str());
    usage(argv[0]);
    return 2;
  }
  if (names.empty())
    names = smoke ? std::vector<std::string>{"li", "swim"}
                  : erel::workloads::workload_names();
  if (smoke) {
    if (func_insts == 0) func_insts = 200'000;
    if (pipeline_insts == 0) pipeline_insts = 10'000;
    if (min_seconds < 0.0) min_seconds = 0.0;
  } else {
    if (pipeline_insts == 0) pipeline_insts = 30'000;
    if (min_seconds < 0.0) min_seconds = 0.25;
  }

  std::vector<KernelResult> results;
  for (const std::string& name : names) {
    const erel::arch::Program program =
        erel::workloads::assemble_workload(name);
    const erel::arch::DecodedProgram decoded(program);
    KernelResult r;
    r.name = name;
    r.func_mips_fast = measure_functional(program, &decoded, func_insts,
                                          min_seconds, &r.func_insts);
    r.func_mips_legacy = measure_functional(program, nullptr, func_insts,
                                            min_seconds, nullptr);
    r.pipe_kips_fast = measure_pipeline(program, /*fast_path=*/true,
                                        pipeline_insts, &r.pipe_insts);
    r.pipe_kips_legacy =
        measure_pipeline(program, /*fast_path=*/false, pipeline_insts,
                         nullptr);
    results.push_back(r);
    std::printf("%-10s func %8.1f MIPS (legacy %6.1f, %4.2fx)   "
                "pipeline %7.1f KIPS (legacy %6.1f, %4.2fx)\n",
                r.name.c_str(), r.func_mips_fast, r.func_mips_legacy,
                r.func_speedup(), r.pipe_kips_fast, r.pipe_kips_legacy,
                r.pipe_speedup());
  }

  const double ff = hmean(results, &KernelResult::func_mips_fast);
  const double fl = hmean(results, &KernelResult::func_mips_legacy);
  const double pf = hmean(results, &KernelResult::pipe_kips_fast);
  const double pl = hmean(results, &KernelResult::pipe_kips_legacy);
  std::printf("\nhmean      func %8.1f MIPS (legacy %6.1f, %4.2fx)   "
              "pipeline %7.1f KIPS (legacy %6.1f, %4.2fx)\n",
              ff, fl, fl > 0.0 ? ff / fl : 0.0, pf, pl,
              pl > 0.0 ? pf / pl : 0.0);

  write_json(json_path, results, smoke);
  std::printf("wrote %s (%zu kernels)\n", json_path.c_str(), results.size());

  if (smoke) {
    for (const KernelResult& r : results) {
      if (r.func_mips_fast <= 0.0 || r.func_mips_legacy <= 0.0 ||
          r.pipe_kips_fast <= 0.0 || r.pipe_kips_legacy <= 0.0) {
        std::fprintf(stderr, "smoke FAIL: non-positive throughput for %s\n",
                     r.name.c_str());
        return 1;
      }
    }
    std::printf("smoke OK: all throughputs positive\n");
  }
  return 0;
}
