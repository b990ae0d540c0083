// Register-pressure study: sweep the physical register file size for one
// kernel and print IPC curves for all three release policies — a
// per-benchmark slice of the paper's Figure 11, with an ASCII plot.
// Built on the declarative harness::Experiment sweep API.
//
//   $ ./register_pressure_study [workload]     (default: swim)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "harness/experiment.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace erel;
  using core::PolicyKind;

  const std::string name = argc > 1 ? argv[1] : "swim";
  if (workloads::find_workload(name) == nullptr) {
    std::fprintf(stderr,
                 "%s: unknown workload '%s'\n"
                 "usage: %s [workload]   (a registry kernel; default swim)\n",
                 argv[0], name.c_str(), argv[0]);
    return 2;
  }
  const workloads::Workload& w = workloads::workload(name);
  std::printf("workload: %s — %s (%s)\n\n", w.name.c_str(),
              w.description.c_str(), w.is_fp ? "FP" : "integer");

  const auto& sizes = harness::register_sweep_sizes();
  const harness::ResultSet rs = harness::Experiment()
                                    .workloads({name})
                                    .policies(core::all_policies())
                                    .phys_regs(sizes)
                                    .run();

  TextTable t({"registers", "conv", "basic", "extended", "extended speedup"});
  double max_ipc = 0;
  for (const auto& e : rs.entries()) max_ipc = std::max(max_ipc, e.ipc());
  std::vector<std::string> plot;
  for (const unsigned p : sizes) {
    const double conv = rs.ipc({name, PolicyKind::Conventional, p, ""});
    const double basic = rs.ipc({name, PolicyKind::Basic, p, ""});
    const double ext = rs.ipc({name, PolicyKind::Extended, p, ""});
    t.add_row({std::to_string(p), TextTable::num(conv),
               TextTable::num(basic), TextTable::num(ext),
               TextTable::speedup_pct(ext, conv)});
    // ASCII curve: c = conv, e = extended (b omitted for legibility).
    std::string line(64, ' ');
    const auto col = [&](double ipc) {
      return std::min<std::size_t>(62, static_cast<std::size_t>(
                                           ipc / max_ipc * 60.0));
    };
    line[col(conv)] = 'c';
    line[col(ext)] = line[col(ext)] == 'c' ? '*' : 'e';
    char label[16];
    std::snprintf(label, sizeof label, "%4u |", p);
    plot.push_back(std::string(label) + line);
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("IPC curve (c = conventional, e = extended, * = overlap):\n");
  for (const auto& line : plot) std::printf("%s\n", line.c_str());
  std::printf("\nreading: where 'e' sits right of 'c' the early-release\n"
              "mechanism converts dead registers into usable parallelism;\n"
              "the curves merge once the file is large enough (loose).\n");
  return 0;
}
