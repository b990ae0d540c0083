// erel-lint: project-specific static invariant checker (docs/lint.md).
//
// Scans the repository's own sources and enforces the determinism
// contracts the experiment harness rests on: fingerprint field coverage,
// wire-protocol completeness, deterministic-TU hygiene, logging
// discipline, stat-path naming. Exit status 1 on any finding, so CI can
// gate on it directly:
//
//   erel_lint [--root=PATH] [--report=PATH] [--list-rules]
//
//   --root=PATH     repository root (default: ., then ..,../.. fallback so
//                   `build/erel_lint` works out of the box)
//   --report=PATH   additionally write the findings to a file (CI artifact)
//   --list-rules    print the rule catalog and exit
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "lint/rules.hpp"

namespace {

constexpr const char* kRuleCatalog =
    "fingerprint-coverage  config fields all reach canonical_fields(); "
    "stats fields all reach for_each_stat()\n"
    "protocol-complete     MsgType enumerators handled + tested; "
    "encode/decode pairs\n"
    "nondet-source         no randomness/wall-clock in deterministic TUs\n"
    "nondet-container      no unordered containers in deterministic TUs\n"
    "raw-stdio             library code routes output through common/log\n"
    "stat-path             registry paths lowercase, '/'-separated, "
    "duplicate-free\n";

/// `.` when run from the repo root, else walk up (the binary usually lives
/// in build/).
std::string detect_root(const std::string& hint) {
  namespace fs = std::filesystem;
  if (!hint.empty()) return hint;
  for (const char* candidate : {".", "..", "../.."}) {
    if (fs::exists(fs::path(candidate) / "src" / "sim" / "config.hpp"))
      return candidate;
  }
  return ".";
}

}  // namespace

int main(int argc, char** argv) {
  std::string root_arg;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root_arg = arg.substr(7);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (arg == "--list-rules") {
      std::fputs(kRuleCatalog, stdout);
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: erel_lint [--root=PATH] [--report=PATH] "
                   "[--list-rules]\n");
      return 2;
    }
  }

  const std::string root = detect_root(root_arg);
  std::string error;
  const auto findings = erel::lint::lint_repository(root, &error);
  if (!findings) {
    std::fprintf(stderr, "erel_lint: %s\n", error.c_str());
    return 2;
  }

  const std::string report = erel::lint::format_findings(*findings);
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    out << report;
    if (findings->empty()) out << "erel_lint: clean\n";
  }
  if (findings->empty()) {
    std::printf("erel_lint: clean (root %s)\n", root.c_str());
    return 0;
  }
  std::fputs(report.c_str(), stdout);
  std::printf("erel_lint: %zu finding%s\n", findings->size(),
              findings->size() == 1 ? "" : "s");
  return 1;
}
