// Shared helpers for the table/figure reproduction binaries: workload
// subsets and the `benchutil::cli` option parser every sweep binary uses.
//
// The sweep binaries themselves are thin: they declare a
// harness::Experiment, run it (optionally sampled, optionally against the
// on-disk result cache) and format the paper's tables from the typed
// harness::ResultSet. The old benchutil::run_sweep / SweepKey glue —
// which paired specs to results by replaying the construction loops — is
// gone; see harness/experiment.hpp.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/parse.hpp"
#include "common/thread_pool.hpp"
#include "harness/experiment.hpp"
#include "workloads/workloads.hpp"

namespace erel::benchutil {

/// The paper's integer suite: the five SPECint analogues. Interrupt
/// kernels run only when named or when --irq-period adds them.
inline std::vector<std::string> int_names() {
  std::vector<std::string> names;
  for (const auto& w : workloads::registry())
    if (!w.is_fp && !w.is_irq) names.push_back(w.name);
  return names;
}

inline std::vector<std::string> fp_names() {
  std::vector<std::string> names;
  for (const auto& w : workloads::registry())
    if (w.is_fp) names.push_back(w.name);
  return names;
}

namespace cli {

/// Options common to every sweep binary. `--smoke` shrinks the grid (two
/// short kernels, few sizes, small sampling windows) so CI can execute the
/// binaries end-to-end on every PR instead of only compiling them.
/// Positional arguments name a workload subset of registry kernels;
/// unknown names are rejected with a usage message. Malformed numbers are
/// rejected the same way.
struct Options {
  unsigned threads = 0;  // --threads=N     harness pool (0 = hardware)
  bool sample = false;   // --sample        checkpointed interval sampling
  double target_ci = 0.0;           // --target-ci=X   CI-driven stopping
  std::uint64_t sample_period = 0;  // --sample-period=N   (0 = auto)
  std::uint64_t sample_warmup = 0;  // --sample-warmup=N   (0 = auto)
  std::uint64_t sample_detail = 0;  // --sample-detail=N   (0 = auto)
  std::string csv_path;             // --csv=PATH      ResultSet CSV sink
  std::string cache_dir;            // --cache-dir=PATH  result cache
  std::string server;               // --server=HOST:PORT  ereld daemon
  unsigned server_timeout_ms = 0;   // --server-timeout-ms=N  call deadline
  unsigned server_retries =         // --server-retries=N  per-call budget
      service::ClientOptions{}.retries;
  bool smoke = false;               // --smoke         tiny CI grid
  bool power = false;               // --power         RixnerProbe columns
  std::uint64_t irq_period = 0;     // --irq-period=N  device period rewrite
  std::string timeseries_path;      // --timeseries=PATH  per-stride CSV
  std::uint64_t stride = 0;         // --stride=N      channel stride (cycles)
  std::vector<core::PolicyKind> policies =
      core::all_policies();         // --policies=a,b,c subset filter
  std::vector<std::string> positional;

  /// Attaches the probes the flags ask for (--power) to an experiment.
  void add_probes(harness::Experiment& exp) const {
    if (power) exp.probe("rixner");
  }

  /// Channel stride honoring --stride and --smoke.
  [[nodiscard]] std::uint64_t stat_stride() const {
    return stride != 0 ? stride : (smoke ? 500 : 1000);
  }

  /// Sampling parameters sized for the grid: registry kernels run a few
  /// hundred thousand instructions, so the full-scale defaults already
  /// yield only a handful of units; --smoke shrinks the windows further.
  [[nodiscard]] sim::SamplingConfig sampling_config() const {
    sim::SamplingConfig s;
    s.period = sample_period ? sample_period : (smoke ? 30'000 : 100'000);
    s.warmup = sample_warmup ? sample_warmup : (smoke ? 1'000 : 2'000);
    s.detail = sample_detail ? sample_detail : (smoke ? 5'000 : 10'000);
    s.target_ci = target_ci;
    return s;
  }

  [[nodiscard]] harness::RunOptions run_options() const {
    harness::RunOptions opts;
    opts.threads = threads;
    opts.cache_dir = cache_dir;
    opts.server = server;
    if (server_timeout_ms != 0) {
      opts.remote.connect_timeout_ms = server_timeout_ms;
      opts.remote.call_timeout_ms = server_timeout_ms;
    }
    opts.remote.retries = server_retries;
    return opts;
  }

  // Workload subsets honoring positional selection, --smoke and
  // --irq-period.
  [[nodiscard]] std::vector<std::string> int_names() const {
    if (!positional.empty())
      return apply_irq_period(class_subset(/*fp=*/false), /*append=*/true);
    return apply_irq_period(
        smoke ? std::vector<std::string>{"li"} : benchutil::int_names(),
        /*append=*/true);
  }
  [[nodiscard]] std::vector<std::string> fp_names() const {
    if (!positional.empty())
      return apply_irq_period(class_subset(/*fp=*/true), /*append=*/false);
    return apply_irq_period(
        smoke ? std::vector<std::string>{"swim"} : benchutil::fp_names(),
        /*append=*/false);
  }
  [[nodiscard]] std::vector<std::string> workload_names() const {
    if (!positional.empty()) return apply_irq_period(positional, true);
    if (!smoke) return apply_irq_period(workloads::workload_names(), true);
    return apply_irq_period({"li", "swim"}, true);
  }

 private:
  /// --irq-period=N sweep axis: rewrites the interrupt kernels in `names`
  /// to "timer@N" / "echo@N" (any existing @suffix is replaced); with
  /// `append`, a selection containing no interrupt kernel gains both, so
  /// `--smoke --irq-period=350` exercises them without naming them. The
  /// interrupt kernels are integer-class, hence append=false for the FP
  /// subset.
  [[nodiscard]] std::vector<std::string> apply_irq_period(
      std::vector<std::string> names, bool append) const {
    if (irq_period == 0) return names;
    const std::string suffix = "@" + std::to_string(irq_period);
    bool any = false;
    for (std::string& name : names) {
      const std::string base = name.substr(0, name.find('@'));
      if (base == "timer" || base == "echo") {
        name = base + suffix;
        any = true;
      }
    }
    if (append && !any) {
      names.push_back("timer" + suffix);
      names.push_back("echo" + suffix);
    }
    return names;
  }

  [[nodiscard]] std::vector<std::string> class_subset(bool fp) const {
    std::vector<std::string> names;
    for (const std::string& name : positional) {
      const workloads::Workload* w = workloads::find_workload(name);
      if (w != nullptr && w->is_fp == fp) names.push_back(name);
    }
    return names;
  }
};

inline void usage(const char* argv0) {
  std::printf(
      "usage: %s [options] [workload...]\n"
      "  workload...        subset of the registry kernels\n"
      "                     (default: the full set; see --list-workloads)\n"
      "  --threads=N        harness pool workers (0 = hardware default,\n"
      "                     at most %u)\n"
      "  --sample           checkpointed interval sampling per cell\n"
      "  --target-ci=X      stop sampling at 95%% CI half-width <= X\n"
      "  --sample-period=N  --sample-warmup=N  --sample-detail=N\n"
      "  --policies=A,B     policy subset (conv,basic,extended)\n"
      "  --power            RixnerProbe energy/ED^2 metric columns\n"
      "  --irq-period=N     device period for the interrupt kernels\n"
      "                     (rewrites timer/echo to timer@N/echo@N and adds\n"
      "                     them to selections that lack them; N >= 32)\n"
      "  --timeseries=PATH  per-stride occupancy channel CSV (fig3)\n"
      "  --stride=N         channel stride in cycles (default 1000)\n"
      "  --csv=PATH         write the ResultSet as CSV\n"
      "  --cache-dir=PATH   reuse/store per-cell results on disk\n"
      "  --server=HOST:PORT route cells through an experiment daemon "
      "(ereld)\n"
      "  --server-timeout-ms=N per-call deadline on the daemon path\n"
      "  --server-retries=N    retries per daemon call (default 3); a spent\n"
      "                        budget sends the remaining cells local\n"
      "  --smoke            tiny grid (CI: execute, don't just compile)\n"
      "  --list-workloads   print the workload registry and exit\n"
      "  --list-policies    print the release policies and exit\n",
      argv0, kMaxThreads);
}

inline void list_workloads() {
  std::printf("workloads (name / class / description):\n");
  for (const auto& w : workloads::registry())
    std::printf("  %-10s %-4s %s\n", w.name.c_str(), w.is_fp ? "fp" : "int",
                w.description.c_str());
  std::printf(
      "  timer@N, echo@N the interrupt kernels at device period N (N >= 32)\n");
}

inline void list_policies() {
  std::printf("release policies (accepted by --policies):\n");
  std::printf("  conv       conventional release at redefiner commit\n");
  std::printf("  basic      early release via the Last-Uses Table (sec 3)\n");
  std::printf("  extended   + speculative NVs via the Release Queue (sec 4)\n");
  std::printf("aliases: conventional, ext\n");
}

/// True if `path` opens for writing. An existing file is opened for
/// append, so nothing is truncated; a file the check creates is removed.
inline bool can_write(const std::string& path) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) return false;
  std::fclose(file);
  if (!existed) std::filesystem::remove(path, ec);
  return true;
}

inline Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    const auto value = [&](std::string_view flag) -> std::string {
      // "--flag=value" or "--flag value".
      if (arg.size() > flag.size() && arg[flag.size()] == '=')
        return std::string(arg.substr(flag.size() + 1));
      if (i + 1 < argc) return argv[++i];
      std::fprintf(stderr, "%s: missing value for %.*s\n", argv[0],
                   static_cast<int>(flag.size()), flag.data());
      std::exit(2);
    };
    const auto matches = [&](std::string_view flag) {
      return arg == flag ||
             (arg.size() > flag.size() && arg.substr(0, flag.size()) == flag &&
              arg[flag.size()] == '=');
    };
    const auto bad_value = [&](std::string_view flag, const std::string& text) {
      std::fprintf(stderr, "%s: bad %.*s '%s'\n", argv[0],
                   static_cast<int>(flag.size()), flag.data(), text.c_str());
      usage(argv[0]);
      std::exit(2);
    };
    // Integer flags: plain decimal digits that fit the field they set.
    const auto number = [&](std::string_view flag, auto& field) {
      const std::string text = value(flag);
      const auto v = parse_uint<std::remove_reference_t<decltype(field)>>(text);
      if (!v) bad_value(flag, text);
      field = *v;
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else if (arg == "--list-workloads") {
      list_workloads();
      std::exit(0);
    } else if (arg == "--list-policies") {
      list_policies();
      std::exit(0);
    } else if (arg == "--sample") {
      opts.sample = true;
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--power") {
      opts.power = true;
    } else if (matches("--irq-period")) {
      number("--irq-period", opts.irq_period);
      // find_workload owns the range: a period the "timer@N" scheme does
      // not resolve would abort the sweep later.
      const std::string kernel = "timer@" + std::to_string(opts.irq_period);
      if (workloads::find_workload(kernel) == nullptr) {
        std::fprintf(stderr,
                     "%s: --irq-period must be 32..999999999 (shorter "
                     "periods re-enter the interrupt handler before it "
                     "returns)\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (matches("--timeseries")) {
      opts.timeseries_path = value("--timeseries");
    } else if (matches("--stride")) {
      number("--stride", opts.stride);
    } else if (matches("--threads")) {
      number("--threads", opts.threads);
      if (opts.threads > kMaxThreads)
        bad_value("--threads", std::to_string(opts.threads));
    } else if (matches("--target-ci")) {
      const std::string text = value("--target-ci");
      const std::optional<double> ci = parse_double(text);
      if (!ci || !std::isfinite(*ci) || *ci < 0.0)
        bad_value("--target-ci", text);
      opts.target_ci = *ci;
    } else if (matches("--sample-period")) {
      number("--sample-period", opts.sample_period);
    } else if (matches("--sample-warmup")) {
      number("--sample-warmup", opts.sample_warmup);
    } else if (matches("--sample-detail")) {
      number("--sample-detail", opts.sample_detail);
    } else if (matches("--csv")) {
      opts.csv_path = value("--csv");
    } else if (matches("--cache-dir")) {
      opts.cache_dir = value("--cache-dir");
    } else if (matches("--server-timeout-ms")) {
      number("--server-timeout-ms", opts.server_timeout_ms);
    } else if (matches("--server-retries")) {
      number("--server-retries", opts.server_retries);
    } else if (matches("--server")) {
      opts.server = value("--server");
    } else if (matches("--policies")) {
      opts.policies.clear();
      std::string list = value("--policies");
      std::size_t start = 0;
      while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start) {
          const std::string name = list.substr(start, comma - start);
          const std::optional<core::PolicyKind> kind =
              core::try_parse_policy(name);
          if (!kind) {
            std::fprintf(stderr,
                         "%s: unknown policy '%s' (see --list-policies)\n",
                         argv[0], name.c_str());
            usage(argv[0]);
            std::exit(2);
          }
          opts.policies.push_back(*kind);
        }
        start = comma + 1;
      }
      if (opts.policies.empty()) {
        std::fprintf(stderr, "%s: --policies needs at least one policy\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], argv[i]);
      usage(argv[0]);
      std::exit(2);
    } else {
      opts.positional.push_back(std::string(arg));
    }
  }
  // Validate workload selections up front: a typo should produce a usage
  // message here, not an abort deep inside workloads::workload().
  for (const std::string& name : opts.positional) {
    if (workloads::find_workload(name) == nullptr) {
      std::fprintf(stderr, "%s: unknown workload '%s' (see --list-workloads)\n",
                   argv[0], name.c_str());
      usage(argv[0]);
      std::exit(2);
    }
  }
  // The window flags and --smoke combine into one SamplingConfig; refuse
  // one the sampler cannot run before any cell starts.
  if (opts.sample && !sim::valid_sampling(opts.sampling_config())) {
    const sim::SamplingConfig s = opts.sampling_config();
    std::fprintf(stderr,
                 "%s: --sample-warmup (%llu) + --sample-detail (%llu) must "
                 "be below --sample-period (%llu)\n",
                 argv[0], static_cast<unsigned long long>(s.warmup),
                 static_cast<unsigned long long>(s.detail),
                 static_cast<unsigned long long>(s.period));
    usage(argv[0]);
    std::exit(2);
  }
  // Check every output path before any cell runs: an unusable cache dir
  // would abort the first cell, and an unwritable sink would lose the
  // whole sweep's work at its end.
  const auto bad_path = [&](const char* flag, const std::string& path) {
    std::fprintf(stderr, "%s: cannot write %s '%s'\n", argv[0], flag,
                 path.c_str());
    usage(argv[0]);
    std::exit(2);
  };
  if (!opts.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.cache_dir, ec);
    if (ec || !std::filesystem::is_directory(opts.cache_dir, ec))
      bad_path("--cache-dir", opts.cache_dir);
  }
  for (const auto& [flag, path] :
       {std::pair{"--csv", &opts.csv_path},
        std::pair{"--timeseries", &opts.timeseries_path}})
    if (!path->empty() && !can_write(*path)) bad_path(flag, *path);
  return opts;
}

/// Post-run chores shared by every binary: sink files and the cache
/// provenance line the CI gate greps for.
inline void finish(const harness::ResultSet& rs, const Options& opts) {
  if (!opts.csv_path.empty()) {
    rs.write_csv(opts.csv_path);
    std::printf("wrote CSV %s (%zu cells)\n", opts.csv_path.c_str(), rs.size());
  }
  if (!opts.cache_dir.empty() || !opts.server.empty()) {
    // "hits" counts cells served without fresh simulation anywhere: local
    // cache files and warm daemon-cache replies both arrive from_cache.
    const std::string where =
        !opts.server.empty()
            ? (!opts.cache_dir.empty()
                   ? "server " + opts.server + ", dir " + opts.cache_dir
                   : "server " + opts.server)
            : "dir " + opts.cache_dir;
    std::printf("cache: %zu hits, %zu simulated (%s)\n", rs.cache_hits(),
                rs.simulated(), where.c_str());
  }
}

}  // namespace cli
}  // namespace erel::benchutil
