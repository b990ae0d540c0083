// The benchmark's pinned work, tracer, summaries and reference IPCs.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "arch/decoded_program.hpp"
#include "asmkit/assembler.hpp"
#include "bench.hpp"
#include "harness/experiment.hpp"
#include "harness/harness.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace erelbench {

namespace wl = erel::workloads;
using erel::core::PolicyKind;

const std::vector<Kernel>& kernels() {
  static const std::vector<Kernel> pinned = {
      {"compress", false, [] { return wl::kernel_compress(16384); }},
      {"gcc", false, [] { return wl::kernel_gcc(20000); }},
      {"go", false, [] { return wl::kernel_go(120); }},
      {"li", false, [] { return wl::kernel_li(8); }},
      {"perl", false, [] { return wl::kernel_perl(40); }},
      {"mgrid", true, [] { return wl::kernel_mgrid(18, 4); }},
      {"tomcatv", true, [] { return wl::kernel_tomcatv(48, 6); }},
      {"applu", true, [] { return wl::kernel_applu(1200); }},
      {"swim", true, [] { return wl::kernel_swim(80, 3); }},
      {"hydro2d", true, [] { return wl::kernel_hydro2d(64, 5); }},
  };
  return pinned;
}

std::vector<std::string> kernel_names() {
  std::vector<std::string> names;
  for (const Kernel& k : kernels()) names.emplace_back(k.name);
  return names;
}

bool is_fp_kernel(const std::string& name) {
  for (const Kernel& k : kernels())
    if (name == k.name) return k.is_fp;
  return false;
}

void verify_pinned_kernels() {
  // Experiment::run resolves kernels by registry name, so the registry must
  // still generate exactly the benchmark's pinned programs.
  for (const Kernel& k : kernels()) {
    const wl::Workload* w = wl::find_workload(k.name);
    if (w == nullptr || w->source != k.source()) {
      std::fprintf(stderr,
                   "erelbench: registry kernel '%s' no longer matches the "
                   "benchmark's pinned scale; the benchmark's work would "
                   "change\n",
                   k.name);
      std::exit(3);
    }
  }
}

const std::vector<PolicyKind>& policies() {
  static const std::vector<PolicyKind> kinds = {
      PolicyKind::Conventional, PolicyKind::Basic, PolicyKind::Extended};
  return kinds;
}

const std::vector<unsigned>& full_sizes() {
  static const std::vector<unsigned> sizes = {40, 48, 64};
  return sizes;
}

const std::vector<unsigned>& sampled_sizes() {
  static const std::vector<unsigned> sizes = {40, 48,  56,  64,  72,  80, 88,
                                              96, 104, 112, 120, 128, 160};
  return sizes;
}

const std::vector<unsigned>& daemon_sizes() {
  static const std::vector<unsigned> sizes = {48, 96};
  return sizes;
}

const std::vector<std::string>& smoke_kernels() {
  static const std::vector<std::string> names = {"li", "mgrid"};
  return names;
}

erel::sim::SamplingConfig sweep_sampling(std::uint64_t seed) {
  erel::sim::SamplingConfig s;
  s.period = 100'000;
  s.warmup = 2'000;
  s.detail = 10'000;
  s.placement = erel::sim::Placement::kStratified;
  s.seed = seed;
  s.threads = 1;
  return s;
}

erel::sim::SimConfig go_config() {
  return erel::harness::experiment_config(PolicyKind::Extended, 64);
}

erel::sim::SamplingConfig go_sampling(std::uint64_t seed) {
  erel::sim::SamplingConfig s;
  s.period = 500'000;
  s.warmup = 20'000;
  s.detail = 50'000;
  s.placement = erel::sim::Placement::kStratified;
  s.seed = seed;
  s.threads = kThreads;
  return s;
}

// ---- tracing ---------------------------------------------------------------

std::uint64_t Tracer::open(const char* name, std::uint64_t parent) {
  if (!enabled_) return 0;
  const Clock::time_point now = Clock::now();
  const std::scoped_lock lock(mu_);
  spans_.push_back(Record{name, parent, now, now, false});
  return spans_.size();
}

void Tracer::close(std::uint64_t id) {
  if (id == 0) return;
  const Clock::time_point now = Clock::now();
  const std::scoped_lock lock(mu_);
  spans_[id - 1].end = now;
  spans_[id - 1].closed = true;
}

std::vector<double> Tracer::seconds(std::string_view name) const {
  std::vector<double> out;
  const std::scoped_lock lock(mu_);
  for (const Record& r : spans_)
    if (r.closed && name == r.name) out.push_back(seconds_between(r.start, r.end));
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  const std::scoped_lock lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"name\":\"" << r.name
        << "\",\"parent\":" << r.parent << ",\"start_us\":" << us(r.start)
        << ",\"end_us\":" << us(r.end) << "}\n";
  }
  out.flush();
  if (!out)
    std::fprintf(stderr, "erelbench: could not write spans to %s\n",
                 path.c_str());
}

// ---- summaries ---------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& values) {
  double s = 0.0;
  for (const double v : values) s += v;
  return s;
}

void Report::expect(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  // The first failures say what broke; the count says how much.
  if (failed_ < 20)
    std::fprintf(stderr, "erelbench: FAILED: %.*s\n",
                 static_cast<int>(what.size()), what.data());
  ++failed_;
}

const MetricList& end_to_end_metrics() {
  static const MetricList list = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"cell_ms.p50", "ms"},
  };
  return list;
}

const MetricList& layer_metrics() {
  static const MetricList list = {
      {"asmkit.assemble_ms", "ms"},
      {"arch.decode_ms", "ms"},
      {"arch.func_mips", "MIPS"},
      {"arch.capture_us", "us"},
      {"sim.warm_copy_us", "us"},
      {"sim.warm_mips", "MIPS"},
      {"sim.plan_s", "s"},
      {"sim.serial_frac", "ratio"},
      {"sim.window_ms.p50", "ms"},
      {"sim.window_ms.p99", "ms"},
      {"pipeline.kips.int", "KIPS"},
      {"pipeline.kips.fp", "KIPS"},
      {"pipeline.ns_per_cycle", "ns"},
      {"pipeline.cell_s.p50", "s"},
      {"pipeline.cell_s.max", "s"},
      {"harness.pool_idle_frac", "ratio"},
      {"harness.fingerprint_us", "us"},
      {"harness.cache_read_us", "us"},
      {"harness.cache_write_us", "us"},
      {"service.stats_rtt_us.p50", "us"},
      {"service.cold_cell_ms.p50", "ms"},
      {"service.warm_ms.p99", "ms"},
      {"service.simulated", "count"},
      {"service.cache_hits", "count"},
      {"service.deduped", "count"},
      {"service.busy", "count"},
      {"service.errors", "count"},
      {"model.committed", "count"},
      {"model.cycles", "count"},
      {"model.detailed_insts", "count"},
      {"model.units", "count"},
      {"ipc_err_pct", "%"},
      {"error_rate", "ratio"},
      {"host.cpu_s", "s"},
      {"host.calib_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return list;
}

// ---- reference IPCs ----------------------------------------------------------

std::string cell_key(const std::string& workload, PolicyKind policy,
                     unsigned phys) {
  return workload + "/" + std::string(erel::core::policy_name(policy)) + "/" +
         std::to_string(phys);
}

References References::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "erelbench: cannot read reference IPCs '%s'\n",
                 path.c_str());
    std::exit(3);
  }
  References refs;
  std::string line;
  for (unsigned lineno = 1; std::getline(in, line); ++lineno) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    double ipc = 0.0;
    std::uint64_t committed = 0;
    std::uint64_t cycles = 0;
    if (!(fields >> key >> ipc >> committed >> cycles) || !(ipc > 0.0)) {
      std::fprintf(stderr, "erelbench: %s:%u: malformed reference line\n",
                   path.c_str(), lineno);
      std::exit(3);
    }
    refs.ipc_[key] = ipc;
  }
  return refs;
}

std::optional<double> References::ipc(const std::string& key) const {
  const auto it = ipc_.find(key);
  if (it == ipc_.end()) return std::nullopt;
  return it->second;
}

void report_ipc_error(const References& refs,
                      const std::vector<std::pair<std::string, double>>& cells,
                      bool smoke, Report& report) {
  double err = 0.0;
  std::size_t n = 0;
  for (const auto& [key, ipc] : cells) {
    if (const std::optional<double> ref = refs.ipc(key)) {
      err += std::fabs(ipc - *ref) / *ref;
      ++n;
    }
  }
  report.expect(n > 0 || smoke, "no reference IPC for this workload's cells");
  report.set("ipc_err_pct", n == 0 ? 0.0 : 100.0 * err / static_cast<double>(n));
}

void write_references(const std::string& path) {
  namespace h = erel::harness;
  h::RunOptions run_opts;
  run_opts.threads = kThreads;
  const h::ResultSet full = h::Experiment()
                                .workloads(kernel_names())
                                .policies(policies())
                                .phys_regs(full_sizes())
                                .run(run_opts);
  const erel::sim::SimStats go =
      erel::sim::Simulator(go_config())
          .run(erel::asmkit::assemble(wl::kernel_go(kGoSweeps)));

  std::ofstream out(path);
  out << "# Full-detail reference IPCs for erelbench's ipc_err_pct: the\n"
         "# fig11-full cells (also the fig11-sampled and daemon-sweep\n"
         "# references at 40/48/64) and one full run of go-long's program.\n"
         "# Regenerate with: python3 perfbench/run.py --regen-reference\n"
         "# key ipc committed cycles\n";
  const auto line = [&out](const std::string& key,
                           const erel::sim::SimStats& s) {
    char ipc[32];
    std::snprintf(ipc, sizeof ipc, "%.17g", s.ipc());
    out << key << ' ' << ipc << ' ' << s.committed << ' ' << s.cycles << '\n';
  };
  for (const h::ExpEntry& e : full.entries())
    line(cell_key(e.key.workload, e.key.policy, e.key.phys), e.stats);
  line(cell_key(kGoLongName, PolicyKind::Extended, 64), go);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "erelbench: cannot write '%s'\n", path.c_str());
    std::exit(3);
  }
}

// ---- shared helpers -----------------------------------------------------------

std::vector<erel::arch::Program> assemble_programs(
    const std::vector<std::string>& names, Tracer& tracer) {
  std::vector<erel::arch::Program> programs;
  programs.reserve(names.size());
  for (const std::string& name : names) {
    {
      const Span span(tracer, "asmkit.assemble");
      programs.push_back(
          name.starts_with("go@")
              ? erel::asmkit::assemble(wl::kernel_go(
                    static_cast<unsigned>(std::stoul(name.substr(3)))))
              : wl::assemble_workload(name));
    }
    const Span span(tracer, "arch.decode");
    const erel::arch::DecodedProgram decoded(programs.back());
  }
  return programs;
}

void report_setup_layers(const Tracer& tracer, Report& report) {
  report.set("asmkit.assemble_ms", 1e3 * sum(tracer.seconds("asmkit.assemble")));
  report.set("arch.decode_ms", 1e3 * sum(tracer.seconds("arch.decode")));
}

void report_model(Report& report, std::uint64_t committed,
                  std::uint64_t cycles, std::uint64_t detailed,
                  std::uint64_t units) {
  report.set("model.committed", static_cast<double>(committed));
  report.set("model.cycles", static_cast<double>(cycles));
  report.set("model.detailed_insts", static_cast<double>(detailed));
  report.set("model.units", static_cast<double>(units));
}

void expect_cell(Report& report, const std::string& what, bool halted,
                 std::uint64_t committed, double ipc) {
  report.expect(halted && committed > 0 && std::isfinite(ipc) && ipc > 0.0,
                what + ": not halted, nothing committed, or a bad IPC");
}

void report_batch_walls(const std::vector<double>& walls, Report& report) {
  report.set("wall_s", median(walls));
  // A batch caller receives every cell when its pass ends.
  report.set("cell_ms.p50", 1e3 * median(walls));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace erelbench
