// Workload registry: ten kernels mirroring the paper's Table 3 SPEC95
// subset (five integer, five floating-point). SPEC binaries and the Compaq
// compilers are not available, so each kernel is a from-scratch assembly
// program exercising the same behavioural regime as its namesake:
//
//   compress - LZW dictionary compression of a synthetic run-biased stream
//   gcc      - token stream dispatch through a jump table + symbol hashing
//   go       - board scanning with data-dependent neighbour tests
//   li       - 8-queens recursive backtracking (the paper ran "7 queens")
//   perl     - string scoring with letter tables and prefix hashing
//   mgrid    - 3-D 7-point stencil relaxation (multigrid smoother)
//   tomcatv  - 2-D mesh smoothing with long FP dependence chains
//   applu    - batched dense 5x5 LU factorization + triangular solves
//   swim     - shallow-water finite differences over three 2-D fields
//   hydro2d  - 2-D hydrodynamics flux sweeps with min/max limiters
//
// Two interrupt-driven kernels (no SPEC95 namesake) round out the set,
// exercising the src/dev/ device model and asynchronous trap delivery:
//
//   timer    - LCG checksum loop under a periodic timer interrupt
//   echo     - console echo server driven by RX interrupts
//
// "timer@N" / "echo@N" resolve the same kernels at device period N.
//
// Each kernel self-checks by storing checksums at its `result` label; the
// functional oracle validates every committed instruction during simulation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arch/program.hpp"

namespace erel::workloads {

struct Workload {
  std::string name;         // SPEC95 analogue name
  std::string description;  // what the kernel computes
  std::string input;        // Table 3 "inputs" analogue (scale description)
  bool is_fp = false;
  /// Interrupt-driven kernel (timer, echo and their "@N" variants): no
  /// SPEC95 namesake, so the paper's integer means leave it out.
  bool is_irq = false;
  std::string source;       // assembly text
};

/// All twelve kernels at their default (benchmark) scale.
const std::vector<Workload>& registry();

/// Lookup by name; aborts on unknown names.
const Workload& workload(const std::string& name);

/// Lookup by name; nullptr on unknown names (CLI validation paths that
/// want a usage message instead of an abort). Besides the registry names,
/// resolves the parameterized interrupt kernels "timer@N" / "echo@N"
/// (device period N retired instructions, N >= 32) on demand; resolved
/// instances are cached with stable addresses.
const Workload* find_workload(const std::string& name);

/// Assembles a workload by name (anything find_workload resolves); aborts
/// on unknown names.
arch::Program assemble_workload(const std::string& name);

/// The kernel generators' templating step: replaces every "{KEY}" in
/// `text` with `value`, left to right, resuming after each replacement.
std::string subst(std::string text, std::string_view key,
                  std::string_view value);

/// subst with `value` in decimal.
inline std::string subst(std::string text, std::string_view key,
                         unsigned long long value) {
  return subst(std::move(text), key, std::to_string(value));
}

/// Integer kernel generators (scale >= 1; default scales in workloads.cpp).
std::string kernel_compress(unsigned bytes);
std::string kernel_gcc(unsigned tokens);
std::string kernel_go(unsigned sweeps);
std::string kernel_li(unsigned queens);
std::string kernel_perl(unsigned passes);

/// Interrupt-driven kernel generators (src/dev/ device model): a periodic
/// timer tick counter and a console RX echo handler. `period` is in retired
/// instructions and must be >= 32 so the handler returns before the next
/// event fires. Resolvable at any period via the "timer@N" / "echo@N" name
/// scheme in find_workload().
std::string kernel_timer(unsigned iters, unsigned period);
std::string kernel_echo(unsigned echoes, unsigned period);

/// Floating-point kernel generators.
std::string kernel_mgrid(unsigned dim, unsigned sweeps);
std::string kernel_tomcatv(unsigned dim, unsigned iters);
std::string kernel_applu(unsigned systems);
std::string kernel_swim(unsigned dim, unsigned steps);
std::string kernel_hydro2d(unsigned dim, unsigned steps);

/// Names in Table 3 order (int then FP).
const std::vector<std::string>& workload_names();

}  // namespace erel::workloads
