// erel-lint self-tests: lexer behavior, every rule against PASS/FAIL
// fixtures (tests/lint_fixtures/), the exemption machinery, and — the
// acceptance criterion — proof that deleting a canonical-field line from
// the real src/sim/config.cpp makes the project lint fail.
//
// EREL_SOURCE_DIR (set by CMake) points at the repo root so the fixtures
// and the real sources are reachable from any build directory.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lexer.hpp"
#include "lint/rules.hpp"

namespace erel::lint {
namespace {

std::string read_file_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

std::string fixture_path(const std::string& name) {
  return std::string(EREL_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

/// Loads a fixture under its bare name (findings report "coverage_fail.hpp",
/// not an absolute path).
SourceFile load_fixture(const std::string& name) {
  return tokenize(name, read_file_or_die(fixture_path(name)));
}

FileSet fixture_set(const std::vector<std::string>& names) {
  FileSet files;
  for (const std::string& name : names) files.emplace(name, load_fixture(name));
  return files;
}

std::vector<Finding> lint(const FileSet& files, const RuleConfig& rules,
                          const std::vector<AllowEntry>& allows = {}) {
  return run_rules(files, rules, allows, "test.allow");
}

std::vector<Finding> with_rule(const std::vector<Finding>& findings,
                               std::string_view rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings)
    if (f.rule == rule) out.push_back(f);
  return out;
}

std::set<std::string> subjects(const std::vector<Finding>& findings) {
  std::set<std::string> out;
  for (const Finding& f : findings) out.insert(f.subject);
  return out;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LintLexer, SeparatesCodeCommentsAndStrings) {
  const SourceFile file = tokenize("demo.cpp",
                                   "// a comment with printf\n"
                                   "int x = 1; /* block\n"
                                   "comment */ const char* s = \"rand()\";\n");
  ASSERT_EQ(file.comments.size(), 2u);
  EXPECT_EQ(file.comments[0].text, " a comment with printf");
  EXPECT_EQ(file.comments[0].line, 1);
  EXPECT_EQ(file.comments[1].line, 2);

  // Neither the comment's `printf` nor the string's `rand` are identifier
  // tokens.
  for (const Token& t : file.tokens) {
    EXPECT_FALSE(t.is_ident("printf"));
    EXPECT_FALSE(t.is_ident("rand"));
  }
  // The string literal is one token holding the contents without quotes.
  const auto str = std::find_if(
      file.tokens.begin(), file.tokens.end(),
      [](const Token& t) { return t.kind == Token::Kind::kString; });
  ASSERT_NE(str, file.tokens.end());
  EXPECT_EQ(str->text, "rand()");
}

TEST(LintLexer, SkipsPreprocessorAndHandlesRawStrings) {
  const SourceFile file =
      tokenize("demo.cpp",
               "#include <ctime>\n"
               "#define WIDE \\\n  time(nullptr)\n"
               "auto r = R\"x(time( \"quoted\" rand())x\";\n");
  // `time` from the include and the continued #define never tokenize.
  for (const Token& t : file.tokens) EXPECT_FALSE(t.is_ident("time"));
  const auto str = std::find_if(
      file.tokens.begin(), file.tokens.end(),
      [](const Token& t) { return t.kind == Token::Kind::kString; });
  ASSERT_NE(str, file.tokens.end());
  EXPECT_EQ(str->text, "time( \"quoted\" rand()");
}

TEST(LintLexer, KeepsAccessorPunctuatorsWhole) {
  const SourceFile file = tokenize("demo.cpp", "a->b; c::d; e.f;");
  int arrows = 0, scopes = 0, dots = 0;
  for (const Token& t : file.tokens) {
    arrows += t.is_punct("->");
    scopes += t.is_punct("::");
    dots += t.is_punct(".");
  }
  EXPECT_EQ(arrows, 1);
  EXPECT_EQ(scopes, 1);
  EXPECT_EQ(dots, 1);
}

// ---------------------------------------------------------------------------
// fingerprint-coverage
// ---------------------------------------------------------------------------

RuleConfig coverage_rules(const std::string& stem) {
  RuleConfig rules;
  rules.coverage = {{"DemoConfig", stem + ".hpp", stem + ".cpp", "demo_fields",
                     "demo", ".", "the demo consequence"}};
  return rules;
}

TEST(LintCoverage, PassFixtureIsClean) {
  const auto findings =
      lint(fixture_set({"coverage_pass.hpp", "coverage_pass.cpp"}),
           coverage_rules("coverage_pass"));
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(LintCoverage, UnserializedFieldIsAFinding) {
  const auto findings =
      lint(fixture_set({"coverage_fail.hpp", "coverage_fail.cpp"}),
           coverage_rules("coverage_fail"));
  ASSERT_EQ(findings.size(), 1u) << format_findings(findings);
  EXPECT_EQ(findings[0].rule, "fingerprint-coverage");
  EXPECT_EQ(findings[0].subject, "DemoConfig::strict");
  EXPECT_EQ(findings[0].file, "coverage_fail.hpp");
  EXPECT_GT(findings[0].line, 0);
  // The finding states the binding's consequence.
  EXPECT_TRUE(findings[0].message.ends_with("— the demo consequence"))
      << findings[0].message;
}

TEST(LintCoverage, MissingFilesAreLintErrorsNotSilence) {
  const auto findings =
      lint(fixture_set({"coverage_pass.hpp"}), coverage_rules("coverage_pass"));
  ASSERT_EQ(findings.size(), 1u) << format_findings(findings);
  EXPECT_EQ(findings[0].rule, "lint-error");
}

// ---------------------------------------------------------------------------
// protocol-complete
// ---------------------------------------------------------------------------

TEST(LintProtocol, FullyHandledEnumIsClean) {
  RuleConfig rules;
  rules.enums = {{"DemoMsg", "enum_decl.hpp", {"enum_pass_uses.cpp"}}};
  const auto findings =
      lint(fixture_set({"enum_decl.hpp", "enum_pass_uses.cpp"}), rules);
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(LintProtocol, UnhandledEnumeratorIsAFinding) {
  RuleConfig rules;
  rules.enums = {{"DemoMsg", "enum_decl.hpp", {"enum_fail_uses.cpp"}}};
  const auto findings =
      lint(fixture_set({"enum_decl.hpp", "enum_fail_uses.cpp"}), rules);
  ASSERT_EQ(findings.size(), 1u) << format_findings(findings);
  EXPECT_EQ(findings[0].rule, "protocol-complete");
  EXPECT_EQ(findings[0].subject, "DemoMsg::kGamma");
}

TEST(LintProtocol, MentionsInsideTheEnumBodyDoNotCount) {
  // The declaration site itself must not satisfy the rule: asking for
  // mentions in the header finds none outside the enum's own body.
  RuleConfig rules;
  rules.enums = {{"DemoMsg", "enum_decl.hpp", {"enum_decl.hpp"}}};
  const auto findings = lint(fixture_set({"enum_decl.hpp"}), rules);
  EXPECT_EQ(findings.size(), 3u) << format_findings(findings);
}

TEST(LintProtocol, PairedAndExercisedCodecIsClean) {
  RuleConfig rules;
  rules.codec_pair_files = {"codec_pass.hpp"};
  rules.codec_mention_in = {"codec_uses.cpp"};
  const auto findings =
      lint(fixture_set({"codec_pass.hpp", "codec_uses.cpp"}), rules);
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(LintProtocol, OrphanEncoderIsTwoFindings) {
  // encode_orphan lacks both its decode twin and a test mention.
  RuleConfig rules;
  rules.codec_pair_files = {"codec_fail.hpp"};
  rules.codec_mention_in = {"codec_uses.cpp"};
  const auto findings =
      lint(fixture_set({"codec_fail.hpp", "codec_uses.cpp"}), rules);
  const auto protocol = with_rule(findings, "protocol-complete");
  EXPECT_EQ(protocol.size(), 2u) << format_findings(findings);
  EXPECT_TRUE(subjects(protocol).count("decode_orphan"));
  EXPECT_TRUE(subjects(protocol).count("encode_orphan"));
}

// ---------------------------------------------------------------------------
// nondet-source / nondet-container
// ---------------------------------------------------------------------------

RuleConfig deterministic(const std::string& file) {
  RuleConfig rules;
  rules.deterministic_tus = {file};
  return rules;
}

TEST(LintNondet, SeededMixingAndLookAlikesAreClean) {
  const auto findings =
      lint(fixture_set({"nondet_pass.cpp"}), deterministic("nondet_pass.cpp"));
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(LintNondet, RandomnessAndClockReadsAreFindings) {
  const auto findings =
      lint(fixture_set({"nondet_fail.cpp"}), deterministic("nondet_fail.cpp"));
  const auto nondet = with_rule(findings, "nondet-source");
  EXPECT_EQ(nondet.size(), 4u) << format_findings(findings);
  EXPECT_EQ(subjects(nondet),
            (std::set<std::string>{"random_device", "time", "steady_clock",
                                   "rand"}));
}

TEST(LintNondet, OrderedContainersAreClean) {
  const auto findings = lint(fixture_set({"container_pass.cpp"}),
                             deterministic("container_pass.cpp"));
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(LintNondet, UnorderedContainersAreFindings) {
  const auto findings = lint(fixture_set({"container_fail.cpp"}),
                             deterministic("container_fail.cpp"));
  const auto nondet = with_rule(findings, "nondet-container");
  EXPECT_EQ(nondet.size(), 2u) << format_findings(findings);
  EXPECT_EQ(subjects(nondet),
            (std::set<std::string>{"unordered_map", "unordered_set"}));
}

// ---------------------------------------------------------------------------
// raw-stdio
// ---------------------------------------------------------------------------

RuleConfig library(const std::string& file) {
  RuleConfig rules;
  rules.library_files = {file};
  return rules;
}

TEST(LintStdio, StringsAndCommentsAreClean) {
  const auto findings =
      lint(fixture_set({"stdio_pass.cpp"}), library("stdio_pass.cpp"));
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(LintStdio, DirectPrintsAreFindings) {
  const auto findings =
      lint(fixture_set({"stdio_fail.cpp"}), library("stdio_fail.cpp"));
  const auto stdio = with_rule(findings, "raw-stdio");
  EXPECT_EQ(stdio.size(), 3u) << format_findings(findings);
  EXPECT_EQ(subjects(stdio),
            (std::set<std::string>{"printf", "cout", "fputs"}));
}

// ---------------------------------------------------------------------------
// stat-path
// ---------------------------------------------------------------------------

TEST(LintStatPath, ConventionalPathsAndFreeTextConstantsAreClean) {
  const auto findings =
      lint(fixture_set({"statpath_pass.cpp"}), library("statpath_pass.cpp"));
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(LintStatPath, BadSpellingAndDuplicatesAreFindings) {
  const auto findings =
      lint(fixture_set({"statpath_fail.cpp"}), library("statpath_fail.cpp"));
  const auto stat = with_rule(findings, "stat-path");
  EXPECT_EQ(stat.size(), 3u) << format_findings(findings);
  EXPECT_EQ(subjects(stat),
            (std::set<std::string>{"Demo/Cycles", "demo//commits",
                                   "demo/commits"}));
}

TEST(LintStatPath, DuplicatesAreDetectedAcrossFiles) {
  // Two files each registering demo/commits collide, even though each file
  // alone is (duplicate-wise) fine.
  FileSet files;
  files.emplace("a.cpp",
                tokenize("a.cpp", "void f(R& r) { r.counter(\"demo/x\"); }"));
  files.emplace("b.cpp",
                tokenize("b.cpp", "void g(R& r) { r.counter(\"demo/x\"); }"));
  RuleConfig rules;
  rules.library_files = {"a.cpp", "b.cpp"};
  const auto findings = lint(files, rules);
  ASSERT_EQ(findings.size(), 1u) << format_findings(findings);
  EXPECT_EQ(findings[0].rule, "stat-path");
  EXPECT_EQ(findings[0].file, "b.cpp");
}

// ---------------------------------------------------------------------------
// Exemptions: inline directives and the allowlist
// ---------------------------------------------------------------------------

TEST(LintExemptions, WellFormedInlineDirectivesSuppress) {
  const auto findings =
      lint(fixture_set({"allow_ok.cpp"}), deterministic("allow_ok.cpp"));
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(LintExemptions, MalformedDirectivesAreFindingsAndDoNotSuppress) {
  const auto findings =
      lint(fixture_set({"allow_bad.cpp"}), deterministic("allow_bad.cpp"));
  EXPECT_EQ(with_rule(findings, "bad-exemption").size(), 3u)
      << format_findings(findings);
  // The decorated violations all survive.
  EXPECT_EQ(with_rule(findings, "nondet-container").size(), 3u)
      << format_findings(findings);
}

TEST(LintExemptions, AllowlistSuppressesBySubjectAndByFile) {
  FileSet files = fixture_set({"container_fail.cpp", "stdio_fail.cpp"});
  RuleConfig rules;
  rules.deterministic_tus = {"container_fail.cpp"};
  rules.library_files = {"stdio_fail.cpp"};
  const std::vector<AllowEntry> allows = {
      {"nondet-container", "unordered_map", "reason", 1},
      {"nondet-container", "unordered_set", "reason", 2},
      {"raw-stdio", "stdio_fail.cpp", "reason", 3},  // whole-file exemption
  };
  const auto findings = lint(files, rules, allows);
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(LintExemptions, UnmatchedAllowlistEntriesAreStale) {
  const std::vector<AllowEntry> allows = {
      {"raw-stdio", "no_such_file.cpp", "reason", 7}};
  const auto findings = lint(FileSet{}, RuleConfig{}, allows);
  ASSERT_EQ(findings.size(), 1u) << format_findings(findings);
  EXPECT_EQ(findings[0].rule, "stale-allow");
  EXPECT_EQ(findings[0].file, "test.allow");
  EXPECT_EQ(findings[0].line, 7);
}

TEST(LintExemptions, MetaFindingsAreNeverSuppressible) {
  // An allowlist entry cannot excuse a bad-exemption (or any meta) finding;
  // run over allow_bad.cpp with entries naming the decorated violations.
  const std::vector<AllowEntry> allows = {
      {"nondet-container", "unordered_map", "reason", 1}};
  const auto findings = lint(fixture_set({"allow_bad.cpp"}),
                             deterministic("allow_bad.cpp"), allows);
  EXPECT_EQ(with_rule(findings, "bad-exemption").size(), 3u)
      << format_findings(findings);
  EXPECT_TRUE(with_rule(findings, "nondet-container").empty());
}

TEST(LintAllowlist, ParsesEntriesAndRejectsMalformedLines) {
  std::vector<Finding> findings;
  const auto entries = parse_allowlist(
      "test.allow",
      "# comment\n"
      "\n"
      "raw-stdio src/x.cpp -- talks to stderr by design\n"
      "no-such-rule subject -- reason\n"
      "raw-stdio missing-reason-separator\n"
      "raw-stdio subject-without-reason -- \n",
      findings);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rule, "raw-stdio");
  EXPECT_EQ(entries[0].subject, "src/x.cpp");
  EXPECT_EQ(entries[0].line, 3);
  EXPECT_EQ(with_rule(findings, "bad-exemption").size(), 3u)
      << format_findings(findings);
}

// ---------------------------------------------------------------------------
// The real repository
// ---------------------------------------------------------------------------

TEST(LintProject, RepositoryIsClean) {
  std::string error;
  const auto findings = lint_repository(EREL_SOURCE_DIR, &error);
  ASSERT_TRUE(findings.has_value()) << error;
  EXPECT_TRUE(findings->empty()) << format_findings(*findings);
}

TEST(LintProject, DeletingACanonicalFieldLineFailsTheLint) {
  // The acceptance criterion: strip the ghr_bits line from the real
  // serializer and the coverage rule must fire.
  const std::string header_path =
      std::string(EREL_SOURCE_DIR) + "/src/sim/config.hpp";
  const std::string impl_path =
      std::string(EREL_SOURCE_DIR) + "/src/sim/config.cpp";
  std::string impl = read_file_or_die(impl_path);
  const std::size_t at = impl.find("\"ghr_bits\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t from = impl.rfind('\n', at) + 1;
  const std::size_t to = impl.find('\n', at) + 1;
  impl.erase(from, to - from);

  FileSet files;
  files.emplace("src/sim/config.hpp",
                tokenize("src/sim/config.hpp", read_file_or_die(header_path)));
  files.emplace("src/sim/config.cpp", tokenize("src/sim/config.cpp", impl));
  RuleConfig rules;
  rules.coverage = {{"SimConfig", "src/sim/config.hpp", "src/sim/config.cpp",
                     "canonical_fields", "config", ".", "wrong cache hit"}};
  const auto findings = lint(files, rules);
  EXPECT_TRUE(subjects(with_rule(findings, "fingerprint-coverage"))
                  .count("SimConfig::ghr_bits"))
      << format_findings(findings);

  // Control: with the untouched file the only coverage findings are the
  // documented exemptions (which the checked-in allowlist carries).
  FileSet control;
  control.emplace("src/sim/config.hpp",
                  tokenize("src/sim/config.hpp", read_file_or_die(header_path)));
  control.emplace("src/sim/config.cpp",
                  tokenize("src/sim/config.cpp", read_file_or_die(impl_path)));
  const auto clean = lint(control, rules);
  EXPECT_EQ(subjects(with_rule(clean, "fingerprint-coverage")),
            (std::set<std::string>{"SimConfig::fast_path"}))
      << format_findings(clean);
}

TEST(LintProject, DeletingASamplingFieldLineFailsTheLint) {
  // The same guarantee for SamplingConfig: strip the seed line from the
  // real canonical_fields() visitor and the coverage rule must fire.
  const std::string header_path =
      std::string(EREL_SOURCE_DIR) + "/src/sim/sampling.hpp";
  const std::string impl_path =
      std::string(EREL_SOURCE_DIR) + "/src/sim/sampling.cpp";
  std::string impl = read_file_or_die(impl_path);
  const std::size_t at = impl.find("\"sampling.seed\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t from = impl.rfind('\n', at) + 1;
  const std::size_t to = impl.find('\n', at) + 1;
  impl.erase(from, to - from);

  RuleConfig rules;
  rules.coverage = {{"SamplingConfig", "src/sim/sampling.hpp",
                     "src/sim/sampling.cpp", "canonical_fields", "sampling",
                     ".", "wrong cache hit"}};
  const auto lint_with = [&](const std::string& impl_text) {
    FileSet files;
    files.emplace("src/sim/sampling.hpp",
                  tokenize("src/sim/sampling.hpp",
                           read_file_or_die(header_path)));
    files.emplace("src/sim/sampling.cpp",
                  tokenize("src/sim/sampling.cpp", impl_text));
    return subjects(with_rule(lint(files, rules), "fingerprint-coverage"));
  };
  EXPECT_TRUE(lint_with(impl).count("SamplingConfig::seed"));

  // Control: with the untouched file the only coverage findings are the
  // documented exemptions (which the checked-in allowlist carries).
  EXPECT_EQ(lint_with(read_file_or_die(impl_path)),
            (std::set<std::string>{"SamplingConfig::placement",
                                   "SamplingConfig::threads"}));
}

TEST(LintProject, DeletingAStatsTableLineFailsTheLint) {
  // The same guarantee for the run statistics: strip one field's line from
  // sim::for_each_stat and the project's stats bindings must fire for that
  // field alone.
  RuleConfig rules;
  for (const RuleConfig::Coverage& cov : erel_project_rules().coverage)
    if (cov.function == "for_each_stat") rules.coverage.push_back(cov);
  ASSERT_EQ(rules.coverage.size(), 6u);
  const std::string table_path = "src/sim/stats.hpp";
  const auto lint_with = [&](const std::string& table_text) {
    FileSet files;
    for (const RuleConfig::Coverage& cov : rules.coverage) {
      files.emplace(cov.header,
                    tokenize(cov.header,
                             read_file_or_die(std::string(EREL_SOURCE_DIR) +
                                              "/" + cov.header)));
    }
    files.erase(table_path);
    files.emplace(table_path, tokenize(table_path, table_text));
    return with_rule(lint(files, rules), "fingerprint-coverage");
  };
  const std::string table =
      read_file_or_die(std::string(EREL_SOURCE_DIR) + "/" + table_path);

  const std::pair<std::string, std::string> deletions[] = {
      {"s.icache_stall_cycles", "SimStats::icache_stall_cycles"},
      {"ps.reuses", "PolicyStats::reuses"},
      {"occ.avg_idle", "Occupancy::avg_idle"},
      {"cs.writebacks", "CacheStats::writebacks"},
  };
  for (const auto& [access, subject] : deletions) {
    std::string text = table;
    const std::size_t at = text.find(access);
    ASSERT_NE(at, std::string::npos) << access;
    const std::size_t from = text.rfind('\n', at) + 1;
    const std::size_t to = text.find('\n', at) + 1;
    text.erase(from, to - from);
    const std::vector<Finding> findings = lint_with(text);
    ASSERT_EQ(findings.size(), 1u) << format_findings(findings);
    EXPECT_EQ(findings[0].subject, subject);
    EXPECT_NE(findings[0].message.find("never published"), std::string::npos)
        << findings[0].message;
  }

  // Control: the untouched table covers every field.
  EXPECT_TRUE(lint_with(table).empty()) << format_findings(lint_with(table));
}

}  // namespace
}  // namespace erel::lint
