// Pipeline trace ("pipeview"): a commit probe records each committed
// instruction's journey through the machine — dispatch, issue, writeback,
// commit cycles — and the example summarizes the recorded stream. The
// human-readable table and ASCII lane diagram are available behind --dump.
// Rename (free-list) stalls are directly visible as gaps between commits of
// redefining instructions and dispatches of their successors.
//
//   $ ./pipeline_trace                    # summarize the commit stream
//   $ ./pipeline_trace --dump             # also print the per-commit table
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "asmkit/assembler.hpp"
#include "isa/isa.hpp"
#include "sim/probe.hpp"
#include "sim/simulator.hpp"

namespace {

struct CommitRecorder final : erel::sim::Probe {
  std::vector<erel::sim::CommitEvent> events;
  void on_commit(const erel::sim::CommitEvent& ev) override {
    erel::sim::CommitEvent copy = ev;
    copy.inst = nullptr;  // pointers are valid during the callback only
    copy.rec = nullptr;
    events.push_back(copy);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace erel;

  bool dump = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump") == 0) {
      dump = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\nusage: %s [--dump]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }

  const arch::Program program = asmkit::assemble(R"(
main:
  li   r3, 3
  la   r4, data
loop:
  fld  f1, 0(r4)
  fld  f2, 8(r4)
  fmul f3, f1, f2
  fadd f4, f3, f1
  fsd  f4, 16(r4)
  addi r3, r3, -1
  bnez r3, loop
  halt
.data
data: .double 1.5, 2.0, 0.0
)");

  sim::SimConfig config;
  config.policy = core::PolicyKind::Extended;
  config.phys_int = 40;
  config.phys_fp = 36;  // very tight: only 4 FP rename registers

  CommitRecorder recorder;
  const sim::SimStats stats = sim::Simulator(config).run(program, {&recorder});
  const std::vector<sim::CommitEvent>& events = recorder.events;

  if (dump) {
    std::printf("\n%-5s %-9s %-28s %9s %7s %9s %8s\n", "seq", "pc",
                "instruction", "dispatch", "issue", "complete", "commit");
    for (const auto& ev : events) {
      const auto inst = isa::decode(ev.encoding);
      std::printf("%-5llu %08llx  %-28s %9llu %7llu %9llu %8llu\n",
                  static_cast<unsigned long long>(ev.seq),
                  static_cast<unsigned long long>(ev.pc),
                  isa::disassemble(inst, ev.pc).c_str(),
                  static_cast<unsigned long long>(ev.dispatch_cycle),
                  static_cast<unsigned long long>(ev.issue_cycle),
                  static_cast<unsigned long long>(ev.complete_cycle),
                  static_cast<unsigned long long>(ev.commit_cycle));
    }

    // Lane diagram for the last loop iteration (D dispatch, I issue,
    // C complete, R retire/commit).
    std::printf("\nlane diagram (last %zu commits):\n",
                std::min<std::size_t>(events.size(), 10));
    const std::size_t first = events.size() > 10 ? events.size() - 10 : 0;
    const std::uint64_t t0 = events[first].dispatch_cycle;
    for (std::size_t i = first; i < events.size(); ++i) {
      const auto& ev = events[i];
      std::string lane(std::max<std::uint64_t>(ev.commit_cycle - t0 + 2, 2),
                       ' ');
      lane[ev.dispatch_cycle - t0] = 'D';
      lane[ev.issue_cycle - t0] = 'I';
      lane[ev.complete_cycle - t0] = 'C';
      lane[ev.commit_cycle - t0] = 'R';
      const auto inst = isa::decode(ev.encoding);
      std::printf("  %-12s |%s\n",
                  std::string(inst.info().mnemonic).c_str(), lane.c_str());
    }
  }

  // IPC over the last commit cycle; mean dispatch->commit latency.
  std::uint64_t cycles = 0;
  std::uint64_t latency = 0;
  for (const auto& ev : events) {
    cycles = ev.commit_cycle;
    latency += ev.commit_cycle - ev.dispatch_cycle;
  }
  const double n = static_cast<double>(events.size());
  std::printf("\ntrace summary: %zu instructions, IPC %.4f, "
              "avg dispatch->commit %.1f cycles\n",
              events.size(), cycles == 0 ? 0.0 : n / cycles,
              events.empty() ? 0.0 : latency / n);
  std::printf("\n%s", sim::format_stats(stats).c_str());
  return 0;
}
