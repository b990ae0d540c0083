// erelbench: erel's benchmark program. Runs one workload for a fixed time,
// checks its outputs, and prints its metrics with units; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
//
//   erelbench --workload fig11-full|fig11-sampled|go-long|daemon-sweep
//             --seed N --seconds S --trace 0|1 --reference FILE
//             --scratch DIR [--spans FILE] [--smoke]
//             [--git-sha SHA] [--source-digest HEX]
//   erelbench --regen-reference FILE
//
// Normally started through run.py, which builds it first (see README.md).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace erelbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "erelbench: %s\n"
               "usage: erelbench --workload W --seed N --seconds S --trace 0|1 "
               "--reference FILE --scratch DIR [--spans FILE] [--smoke]\n"
               "       erelbench --regen-reference FILE\n",
               why.c_str());
  std::exit(2);
}

[[noreturn]] void refuse(const char* what) {
  std::fprintf(stderr, "erelbench: refusing to report from %s\n", what);
  std::exit(2);
}

/// Timings from unoptimised or instrumented code say nothing about the
/// simulator.
void require_optimised_build() {
#if !defined(__OPTIMIZE__)
  refuse("an unoptimised build");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  refuse("a sanitizer build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                    \
    __has_feature(undefined_behavior_sanitizer)
  refuse("a sanitizer build");
#endif
#endif
  const std::string type = EREL_BENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo")
    refuse(("a " + type + " build").c_str());
}

volatile std::uint64_t g_calibration_sink = 0;

/// A fixed integer loop, timed (median of three): the machine's speed at
/// the start and end of a run, to tell a slower machine from slower code.
double calibrate_ms() {
  std::vector<double> times;
  time_calls(3, [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ull ^ g_calibration_sink;
    for (std::uint32_t i = 0; i < (1u << 24); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x2545f4914f6cdd1dull;
    }
    g_calibration_sink = x;
  }, times);
  return 1e3 * median(times);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("model name")) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-')
    usage(flag + " needs a whole number, not '" + text + "'");
  return v;
}

using Runner = void (*)(const Options&, Tracer&, Report&);

Runner find_workload(const std::string& name) {
  static const std::vector<std::pair<std::string, Runner>> runners = {
      {"fig11-full",
       [](const Options& o, Tracer& t, Report& r) { run_fig11(o, false, t, r); }},
      {"fig11-sampled",
       [](const Options& o, Tracer& t, Report& r) { run_fig11(o, true, t, r); }},
      {"go-long", run_go_long},
      {"daemon-sweep", run_daemon_sweep},
  };
  for (const auto& [workload, run] : runners)
    if (workload == name) return run;
  usage("unknown workload '" + name + "'");
}

bool is_timing(const std::string& unit) {
  return unit == "s" || unit == "ms" || unit == "us" || unit == "ns" ||
         unit == "MIPS" || unit == "KIPS";
}

/// A traced run measures every per-layer timing. Those its workload does
/// not exercise come from smoke-scale traced runs of workloads that do
/// (the layer probes); counts and ratios stay what this run did.
void probe_missing_timings(const Options& opts, Report& report) {
  for (const char* name : {"go-long", "daemon-sweep", "fig11-sampled"}) {
    std::vector<std::string> missing;
    for (const auto& [metric, unit] : layer_metrics())
      if (is_timing(unit) && !report.values().contains(metric))
        missing.push_back(metric);
    if (missing.empty()) return;
    if (opts.workload == name) continue;
    Options probe = opts;
    probe.workload = name;
    probe.smoke = true;
    probe.seconds = 1;
    probe.spans_path.clear();
    Tracer tracer(true);
    Report probed;
    find_workload(name)(probe, tracer, probed);
    report.expect(probed.failed() == 0,
                  std::string("layer probe on ") + name + " failed");
    for (const std::string& metric : missing) {
      if (const auto it = probed.values().find(metric);
          it != probed.values().end())
        report.set(metric, it->second);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  require_optimised_build();
  Options opts;
  std::string regen;
  std::string git_sha = "unknown";
  std::string digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = parse_u64(arg, value());
    } else if (arg == "--seconds") {
      opts.seconds = static_cast<double>(parse_u64(arg, value()));
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opts.trace = v == "1";
    } else if (arg == "--reference") {
      opts.reference = value();
    } else if (arg == "--scratch") {
      opts.scratch_dir = value();
    } else if (arg == "--spans") {
      opts.spans_path = value();
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--git-sha") {
      git_sha = value();
    } else if (arg == "--source-digest") {
      digest = value();
    } else if (arg == "--regen-reference") {
      regen = value();
    } else {
      usage("unknown argument " + arg);
    }
  }

  verify_pinned_kernels();
  if (!regen.empty()) {
    write_references(regen);
    return 0;
  }
  if (opts.reference.empty() || opts.scratch_dir.empty())
    usage("--reference and --scratch are required");
  if (opts.seconds < 1) usage("--seconds must be at least 1");

  const Runner run = find_workload(opts.workload);
  const double calib_start = calibrate_ms();
  const double cpu_start = process_cpu_s();
  Tracer tracer(opts.trace);
  Report report;
  run(opts, tracer, report);
  const double cpu_s = process_cpu_s() - cpu_start;

  if (opts.trace) {
    probe_missing_timings(opts, report);
    // Counts and ratios of layers this workload does not exercise are 0.
    for (const auto& [name, unit] : layer_metrics())
      if (!report.values().contains(name)) report.set(name, 0.0);
  }
  const double calib_end = calibrate_ms();
  const double calib_ms = (calib_start + calib_end) / 2;

  if (opts.trace) {
    report.set("host.cpu_s", cpu_s);
    report.set("host.calib_ms", calib_ms);
    report.set("error_rate", ratio(static_cast<double>(report.failed()),
                                   static_cast<double>(report.attempted())));
    if (!opts.spans_path.empty()) tracer.write(opts.spans_path);
  } else {
    report.set("peak_rss_mb", peak_rss_mb());
  }

  const MetricList& declared = opts.trace ? layer_metrics() : end_to_end_metrics();
  if (report.values().size() != declared.size()) {
    std::fprintf(stderr, "erelbench: internal error: %zu metrics for %zu declared\n",
                 report.values().size(), declared.size());
    return 4;
  }
  for (const auto& [name, unit] : declared) {
    const auto it = report.values().find(name);
    if (it == report.values().end()) {
      std::fprintf(stderr, "erelbench: internal error: metric %s missing\n",
                   name.c_str());
      return 4;
    }
    report.expect(std::isfinite(it->second), name + " is not a finite number");
  }

  std::printf(
      "env {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"git_sha\": %s, \"source_digest\": %s, \"host.calib_ms\": %.6f, "
      "\"calib_start_ms\": %.6f, \"calib_end_ms\": %.6f}\n",
      json_string(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0, std::thread::hardware_concurrency(),
      json_string(cpu_model()).c_str(), json_string(__VERSION__).c_str(),
      json_string(EREL_BENCH_BUILD_TYPE).c_str(), json_string(git_sha).c_str(),
      json_string(digest).c_str(), calib_ms, calib_start, calib_end);
  for (const auto& [name, unit] : declared) {
    std::printf("metric %-26s %14.6g %s\n", name.c_str(),
                report.values().at(name), unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : declared) {
    double v = report.values().at(name);
    if (!std::isfinite(v)) v = 0.0;
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", v);
    json += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + num +
            ", \"unit\": " + json_string(unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
