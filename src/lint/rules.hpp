// erel-lint rule engine: the project-specific invariants no compiler
// checks, enforced over token streams (lint/lexer.hpp). Rule catalog and
// the exemption workflow are documented in docs/lint.md.
//
//   fingerprint-coverage   every data member of a config struct appears in
//                          its canonical_fields() serializer, and every
//                          data member of a stats struct in
//                          sim::for_each_stat
//   protocol-complete      every service::MsgType enumerator has a handling
//                          site in protocol.cpp and a mention in test_net;
//                          encode_X/decode_X come in pairs, each tested
//   nondet-source          no randomness / wall-clock reads in the
//                          deterministic (fingerprint/serialization/stat/
//                          protocol) translation units
//   nondet-container       no unordered containers in those units
//                          (iteration order is stdlib-specific)
//   raw-stdio              library code never prints directly; it routes
//                          through common/log (EREL_WARN / EREL_FATAL)
//   stat-path              StatRegistry path literals are lowercase,
//                          '/'-separated and duplicate-free
//
// Two exemption mechanisms, both requiring a written justification:
//   inline     code line (or the line above it) carries a comment directive
//              naming the rule and the reason
//   allowlist  a checked-in file of `<rule> <subject> -- <reason>` lines
//              (tools/erel_lint.allow); stale entries are findings
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace erel::lint {

/// One rule violation (or meta-problem: bad exemption, stale allowlist
/// entry, broken lint binding). `subject` is the stable name an allowlist
/// entry matches (e.g. "SimConfig::fast_path", "MsgType::kStats", a stat
/// path, or a file path).
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string subject;
  std::string message;

  bool operator==(const Finding&) const = default;
};

/// One allowlist entry: `<rule> <subject> -- <justification>`.
struct AllowEntry {
  std::string rule;
  std::string subject;
  std::string reason;
  int line = 0;  // in the allowlist file, for stale-entry findings
};

/// Scanned sources keyed by repo-relative path.
using FileSet = std::map<std::string, SourceFile>;

/// Binds the generic rules to concrete project artifacts. The default
/// binding for this repo comes from `erel_project_rules()`; lint self-tests
/// build tiny bindings over fixture files.
struct RuleConfig {
  /// fingerprint-coverage: every data member of `struct_name` (declared in
  /// `header`) must be accessed as `<root><accessor><member>` inside the
  /// body of `function` (defined in `impl`).
  struct Coverage {
    std::string struct_name;
    std::string header;
    std::string impl;
    std::string function;
    std::string root;         // parameter/loop-variable the serializer reads
    std::string accessor;     // "." or "->"
    std::string consequence;  // what a missing field breaks, for findings
  };
  std::vector<Coverage> coverage;

  /// protocol-complete (enum leg): every enumerator of `enum_name`
  /// (declared in `header`) must appear as a token in each `mention_in`
  /// file.
  struct EnumMention {
    std::string enum_name;
    std::string header;
    std::vector<std::string> mention_in;
  };
  std::vector<EnumMention> enums;

  /// protocol-complete (codec leg): in each `codec_pair_files` file, every
  /// `encode_X` identifier requires a matching `decode_X` and vice versa,
  /// and both must be referenced in every `codec_mention_in` file.
  std::vector<std::string> codec_pair_files;
  std::vector<std::string> codec_mention_in;

  /// nondet-source + nondet-container scope: the translation units whose
  /// behavior feeds fingerprints, canonical serialization, stat identity or
  /// the wire protocol.
  std::vector<std::string> deterministic_tus;

  /// raw-stdio + stat-path scope (normally: everything under src/).
  std::vector<std::string> library_files;
};

/// Parses allowlist text. Malformed lines (no subject, missing "--" reason)
/// become findings against `path`.
std::vector<AllowEntry> parse_allowlist(const std::string& path,
                                        std::string_view text,
                                        std::vector<Finding>& findings);

/// Runs every configured rule over `files`, applies inline directives and
/// `allows`, and returns the surviving findings plus any bad-exemption /
/// stale-allow / lint-error meta findings, sorted by (file, line, rule).
/// `allowlist_path` is only used to locate stale-entry findings.
std::vector<Finding> run_rules(const FileSet& files, const RuleConfig& rules,
                               const std::vector<AllowEntry>& allows,
                               const std::string& allowlist_path);

/// "path:line: [rule] message" lines, one per finding.
std::string format_findings(const std::vector<Finding>& findings);

// ---- project binding ----------------------------------------------------

/// The rule binding for this repository (struct/enum names, deterministic
/// translation units). `library_files` is filled by `lint_repository`.
RuleConfig erel_project_rules();

/// Relative path of the checked-in allowlist. The k-constant-with-slash
/// heuristic intentionally overreaches so real stat paths in new constants
/// are never missed; this one is a file location, hence:
// erel-lint: allow(stat-path): file location, not a StatRegistry path
inline constexpr std::string_view kAllowlistPath = "tools/erel_lint.allow";

/// Loads sources under `repo_root` (src/** plus the configured test
/// mention files and allowlist) and runs the full project lint. Returns
/// nullopt and sets `error` when `repo_root` does not look like this repo
/// (no src/sim/config.hpp).
std::optional<std::vector<Finding>> lint_repository(
    const std::string& repo_root, std::string* error);

}  // namespace erel::lint
