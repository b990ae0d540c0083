// Binding of the generic lint rules (lint/rules.hpp) to this repository:
// which structs feed fingerprints or the run statistics table, which enum
// is the wire protocol, which translation units must stay deterministic.
// Growing the system usually means growing THIS file: add the new
// struct/enum here and the linter starts defending it.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/rules.hpp"

namespace erel::lint {

namespace {

namespace fs = std::filesystem;

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Repo-relative '/'-separated rendering of `path` under `root`.
std::string rel_name(const fs::path& root, const fs::path& path) {
  return fs::relative(path, root).generic_string();
}

}  // namespace

RuleConfig erel_project_rules() {
  RuleConfig rules;

  // Every struct whose fields the result-cache fingerprint must cover: the
  // top-level SimConfig/SamplingConfig plus the nested config structs the
  // canonical serializer walks through. A field added to any of these but
  // not to the serializer would make two different machines fingerprint
  // identically — the exact silent-cache-poisoning bug this rule exists
  // to catch at CI time.
  const std::string fingerprinted =
      "a config differing only in this field would fingerprint identically "
      "and be served a wrong cached result";
  // Every struct of the run statistics: sim::for_each_stat is the one list
  // the core's publication, the registry view and the cache entry walk.
  const std::string tabled =
      "the field is never published to the registry, written to the cache "
      "entry or materialized into the SimStats view";
  rules.coverage = {
      {"SimConfig", "src/sim/config.hpp", "src/sim/config.cpp",
       "canonical_fields", "config", ".", fingerprinted},
      {"SamplingConfig", "src/sim/sampling.hpp", "src/sim/sampling.cpp",
       "canonical_fields", "sampling", ".", fingerprinted},
      {"FetchConfig", "src/pipeline/fetch.hpp", "src/sim/config.cpp",
       "canonical_fields", "fetch", ".", fingerprinted},
      {"FuConfig", "src/pipeline/fu_pool.hpp", "src/sim/config.cpp",
       "canonical_fields", "fus", ".", fingerprinted},
      {"HierarchyConfig", "src/mem/hierarchy.hpp", "src/sim/config.cpp",
       "canonical_fields", "memory", ".", fingerprinted},
      {"CacheConfig", "src/mem/cache.hpp", "src/sim/config.cpp",
       "canonical_fields", "cache", "->", fingerprinted},
      {"SimStats", "src/sim/stats.hpp", "src/sim/stats.hpp", "for_each_stat",
       "s", ".", tabled},
      {"BranchStats", "src/sim/stats.hpp", "src/sim/stats.hpp",
       "for_each_stat", "branches", ".", tabled},
      {"DispatchStalls", "src/sim/stats.hpp", "src/sim/stats.hpp",
       "for_each_stat", "stalls", ".", tabled},
      {"PolicyStats", "src/core/release_policy.hpp", "src/sim/stats.hpp",
       "for_each_stat", "ps", ".", tabled},
      {"Occupancy", "src/core/reg_state.hpp", "src/sim/stats.hpp",
       "for_each_stat", "occ", ".", tabled},
      {"CacheStats", "src/mem/cache.hpp", "src/sim/stats.hpp",
       "for_each_stat", "cs", ".", tabled},
  };

  // Wire-protocol completeness: every message type must be handled (or
  // explicitly named) in the codec translation unit and exercised by the
  // protocol tests; encode/decode come in pairs.
  rules.enums = {
      {"MsgType",
       "src/service/protocol.hpp",
       {"src/service/protocol.cpp", "tests/test_net.cpp"}},
  };
  rules.codec_pair_files = {"src/service/protocol.hpp"};
  rules.codec_mention_in = {"tests/test_net.cpp"};

  // Translation units whose output feeds fingerprints, the canonical wire
  // format, or stat identity. Randomness, wall-clock reads and
  // hash-container iteration are banned here; seeded splitmix64 draws
  // (common/bits.hpp, used by sim/sampling.cpp) are fine because they use
  // none of the banned constructs.
  rules.deterministic_tus = {
      "src/common/record.cpp",        "src/common/record.hpp",
      "src/dev/machine.cpp",          "src/dev/machine.hpp",
      "src/harness/fingerprint.cpp", "src/harness/fingerprint.hpp",
      "src/harness/result_cache.cpp", "src/harness/results.cpp",
      "src/harness/results.hpp",      "src/service/protocol.cpp",
      "src/service/protocol.hpp",     "src/sim/config.cpp",
      "src/sim/config.hpp",           "src/sim/sampling.cpp",
      "src/sim/sampling.hpp",         "src/sim/stat_registry.cpp",
      "src/sim/stat_registry.hpp",    "src/sim/stats.hpp",
  };

  return rules;
}

std::optional<std::vector<Finding>> lint_repository(
    const std::string& repo_root, std::string* error) {
  const fs::path root(repo_root);
  if (!fs::exists(root / "src" / "sim" / "config.hpp")) {
    if (error != nullptr) {
      *error = repo_root +
               " does not look like the erel repo root "
               "(src/sim/config.hpp missing)";
    }
    return std::nullopt;
  }

  RuleConfig rules = erel_project_rules();

  // Library scope: every C++ file under src/, sorted for deterministic
  // reports.
  std::vector<std::string> library;
  for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp") continue;
    library.push_back(rel_name(root, entry.path()));
  }
  std::sort(library.begin(), library.end());
  rules.library_files = library;

  // Files the rules read: the library plus out-of-src mention targets.
  std::vector<std::string> wanted = library;
  for (const RuleConfig::EnumMention& em : rules.enums)
    wanted.insert(wanted.end(), em.mention_in.begin(), em.mention_in.end());
  wanted.insert(wanted.end(), rules.codec_mention_in.begin(),
                rules.codec_mention_in.end());

  FileSet files;
  std::vector<Finding> pre;
  for (const std::string& rel : wanted) {
    if (files.count(rel) != 0) continue;
    if (const auto content = read_file(root / rel)) {
      files.emplace(rel, tokenize(rel, *content));
    }
    // Missing files surface as lint-error findings from the rules that
    // need them; nothing to do here.
  }

  std::vector<AllowEntry> allows;
  if (const auto allow_text = read_file(root / std::string(kAllowlistPath)))
    allows = parse_allowlist(std::string(kAllowlistPath), *allow_text, pre);

  std::vector<Finding> findings =
      run_rules(files, rules, allows, std::string(kAllowlistPath));
  findings.insert(findings.end(), pre.begin(), pre.end());
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

}  // namespace erel::lint
