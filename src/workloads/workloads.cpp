#include "workloads/workloads.hpp"

#include <map>
#include <mutex>
#include <optional>

#include "asmkit/assembler.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"

namespace erel::workloads {

namespace {

std::vector<Workload> build_registry() {
  std::vector<Workload> w;
  // Default scales target a few hundred thousand dynamic instructions per
  // kernel: roughly 300-1000x smaller than the paper's Table 3 runs, which
  // keeps the full Figure 11 sweep (390 simulations) tractable while staying
  // far above the pipeline's warm-up transient.
  w.push_back({"compress", "LZW over a run-biased 16 KB stream",
               "16384 bytes, 64-symbol alphabet", false, false,
               kernel_compress(16384)});
  w.push_back({"gcc", "token dispatch via jump table + symbol hashing",
               "20000 tokens, 8 handlers", false, false, kernel_gcc(20000)});
  w.push_back({"go", "19x19 board influence sweeps",
               "120 sweeps with toy captures", false, false, kernel_go(120)});
  w.push_back({"li", "recursive N-queens backtracking (paper input: queens)",
               "8 queens (92 solutions)", false, false, kernel_li(8)});
  w.push_back({"perl", "word scoring + prefix hashing",
               "512 words x 40 passes", false, false, kernel_perl(40)});
  w.push_back({"mgrid", "3-D 7-point stencil relaxation",
               "18^3 grid, 4 sweeps", true, false, kernel_mgrid(18, 4)});
  w.push_back({"tomcatv", "2-D mesh smoothing, dual coordinate arrays",
               "48x48 mesh, 6 iterations", true, false, kernel_tomcatv(48, 6)});
  w.push_back({"applu", "batched dense 5x5 LU + triangular solves",
               "1200 systems", true, false, kernel_applu(1200)});
  w.push_back({"swim", "shallow-water finite differences",
               "80x80 fields, 3 steps", true, false, kernel_swim(80, 3)});
  w.push_back({"hydro2d", "limiter-based directional flux sweeps",
               "64x64 fields, 5 steps", true, false, kernel_hydro2d(64, 5)});
  // Interrupt-driven kernels (no SPEC95 namesake): src/dev/ device-model
  // workloads whose handlers run off asynchronous timer / console-RX
  // interrupts. Other periods resolve via "timer@N" / "echo@N".
  w.push_back({"timer", "LCG checksum loop under a periodic timer interrupt",
               "28000 iterations, tick every 400 insts", false, true,
               kernel_timer(28000, 400)});
  w.push_back({"echo", "interrupt-driven console echo server",
               "256 bytes, RX byte every 700 insts", false, true,
               kernel_echo(256, 700)});
  return w;
}

/// "timer@N" / "echo@N": the interrupt kernels at a caller-chosen device
/// period (the fig11 --irq-period sweep axis). Returns nullptr unless the
/// suffix is a plain decimal N >= 32 (shorter periods would re-enter the
/// handler before it returns). Resolved workloads are cached with
/// node-stable addresses so the usual registry pointer contract holds.
const Workload* find_parameterized(const std::string& name) {
  const std::size_t at = name.find('@');
  if (at == std::string::npos) return nullptr;
  const std::string base = name.substr(0, at);
  if (base != "timer" && base != "echo") return nullptr;
  const std::string digits = name.substr(at + 1);
  if (digits.size() > 9) return nullptr;  // keeps the period in `unsigned`
  const std::optional<std::uint64_t> parsed = parse_u64(digits);
  if (!parsed || *parsed < 32) return nullptr;
  const auto period = static_cast<unsigned>(*parsed);

  static std::mutex mu;
  static std::map<std::string, Workload>& cache =
      *new std::map<std::string, Workload>;  // leaked: node-stable forever
  const std::scoped_lock lock(mu);
  const auto it = cache.find(name);
  if (it != cache.end()) return &it->second;
  Workload w;
  w.name = name;
  w.is_fp = false;
  w.is_irq = true;
  if (base == "timer") {
    w.description = "LCG checksum loop under a periodic timer interrupt";
    w.input = "28000 iterations, tick every " + digits + " insts";
    w.source = kernel_timer(28000, period);
  } else {
    w.description = "interrupt-driven console echo server";
    w.input = "256 bytes, RX byte every " + digits + " insts";
    w.source = kernel_echo(256, period);
  }
  return &cache.emplace(name, std::move(w)).first->second;
}

}  // namespace

std::string subst(std::string text, std::string_view key,
                  std::string_view value) {
  const std::string pattern = "{" + std::string(key) + "}";
  for (std::size_t pos = text.find(pattern); pos != std::string::npos;
       pos = text.find(pattern, pos)) {
    text.replace(pos, pattern.size(), value);
    pos += value.size();
  }
  return text;
}

const std::vector<Workload>& registry() {
  static const std::vector<Workload> workloads = build_registry();
  return workloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : registry()) {
    if (w.name == name) return &w;
  }
  return find_parameterized(name);
}

const Workload& workload(const std::string& name) {
  const Workload* w = find_workload(name);
  if (w == nullptr) EREL_FATAL("unknown workload '", name, "'");
  return *w;
}

arch::Program assemble_workload(const std::string& name) {
  return asmkit::assemble(workload(name).source);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Workload& w : registry()) n.push_back(w.name);
    return n;
  }();
  return names;
}

}  // namespace erel::workloads
