#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <string_view>

namespace erel::lint {

namespace {

using Tokens = std::vector<Token>;

constexpr std::array<std::string_view, 6> kKnownRules = {
    "fingerprint-coverage", "protocol-complete", "nondet-source",
    "nondet-container",     "raw-stdio",         "stat-path"};

bool known_rule(std::string_view rule) {
  return std::find(kKnownRules.begin(), kKnownRules.end(), rule) !=
         kKnownRules.end();
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

// ---- token-stream navigation --------------------------------------------

/// Index of the '}' matching the '{' at `open`; tokens.size() when
/// unbalanced (truncated fixtures).
std::size_t match_brace(const Tokens& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].is_punct("{")) ++depth;
    if (t[i].is_punct("}") && --depth == 0) return i;
  }
  return t.size();
}

std::size_t match_paren(const Tokens& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].is_punct("(")) ++depth;
    if (t[i].is_punct(")") && --depth == 0) return i;
  }
  return t.size();
}

/// Token range (open-brace index, close-brace index) of `struct <name> {`;
/// forward declarations are skipped.
std::optional<std::pair<std::size_t, std::size_t>> struct_body(
    const SourceFile& file, const std::string& name) {
  const Tokens& t = file.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(t[i].is_ident("struct") || t[i].is_ident("class"))) continue;
    if (!t[i + 1].is_ident(name)) continue;
    // Scan past "final" / base-clause to the body or a fwd-decl ';'.
    for (std::size_t j = i + 2; j < t.size(); ++j) {
      if (t[j].is_punct(";")) break;
      if (t[j].is_punct("{")) return std::pair{j, match_brace(t, j)};
    }
  }
  return std::nullopt;
}

/// Token range of the body of the first *definition* of function `name`
/// (call sites — ')' followed by anything but an eventual '{' — are
/// skipped).
std::optional<std::pair<std::size_t, std::size_t>> function_body(
    const SourceFile& file, const std::string& name) {
  const Tokens& t = file.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].is_ident(name) || !t[i + 1].is_punct("(")) continue;
    const std::size_t close_paren = match_paren(t, i + 1);
    for (std::size_t j = close_paren + 1; j < t.size(); ++j) {
      if (t[j].is_punct(";") || t[j].is_punct("=") || t[j].is_punct("(") ||
          t[j].is_punct(","))
        break;  // declaration or call, not a definition
      if (t[j].is_punct("{")) return std::pair{j, match_brace(t, j)};
    }
  }
  return std::nullopt;
}

struct Decl {
  std::string name;
  int line = 0;
};

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Data members of the struct body at [open, close]: statement-oriented
/// walk at brace depth 1 that skips member functions (any statement
/// containing '('), nested types, and using/static/friend declarations.
/// The member name is the identifier left of '=' / '{' when an initializer
/// is present, else the last identifier of the declaration.
std::vector<Decl> struct_members(const SourceFile& file, std::size_t open,
                                 std::size_t close) {
  const Tokens& t = file.tokens;
  std::vector<Decl> members;
  std::vector<std::size_t> stmt;
  bool has_paren = false;

  const auto first_ident_is = [&](std::initializer_list<std::string_view> kw) {
    for (const std::size_t idx : stmt) {
      if (t[idx].kind != Token::Kind::kIdent) continue;
      for (const std::string_view k : kw) {
        if (t[idx].text == k) return true;
      }
      return false;
    }
    return false;
  };
  const auto skip_keyword = [&] {
    return first_ident_is({"struct", "class", "enum", "union", "using",
                           "typedef", "static", "friend", "template",
                           "public", "private", "protected", "operator"});
  };
  const auto reset = [&] {
    stmt.clear();
    has_paren = false;
  };
  const auto record = [&](std::size_t name_idx) {
    members.push_back(Decl{t[name_idx].text, t[name_idx].line});
  };
  const auto finalize = [&] {
    if (stmt.empty() || has_paren || skip_keyword()) return reset();
    // Identifier left of the first '='; else the trailing identifier.
    std::size_t name_idx = t.size();
    for (std::size_t k = 0; k < stmt.size(); ++k) {
      if (t[stmt[k]].is_punct("=") && k > 0 &&
          t[stmt[k - 1]].kind == Token::Kind::kIdent) {
        name_idx = stmt[k - 1];
        break;
      }
    }
    if (name_idx == t.size()) {
      for (auto it = stmt.rbegin(); it != stmt.rend(); ++it) {
        if (t[*it].kind == Token::Kind::kIdent) {
          name_idx = *it;
          break;
        }
      }
    }
    if (name_idx != t.size()) record(name_idx);
    reset();
  };

  for (std::size_t i = open + 1; i < close && i < t.size();) {
    const Token& tok = t[i];
    if (tok.is_punct("{")) {
      const std::size_t body_close = match_brace(t, i);
      if (stmt.empty() || has_paren || skip_keyword()) {
        // Member-function body / nested type: not a data member.
        reset();
      } else {
        // Brace initializer: `CacheConfig l1i{...};` — the name is the
        // identifier right before the brace.
        for (auto it = stmt.rbegin(); it != stmt.rend(); ++it) {
          if (t[*it].kind == Token::Kind::kIdent) {
            record(*it);
            break;
          }
        }
        reset();
      }
      i = body_close + 1;
      continue;
    }
    if (tok.is_punct(";")) {
      finalize();
      ++i;
      continue;
    }
    if (tok.is_punct("(")) has_paren = true;
    stmt.push_back(i);
    ++i;
  }
  return members;
}

/// Enumerators of `enum [class] <name> [: type] { ... }`.
std::optional<std::vector<Decl>> enum_members(
    const SourceFile& file, const std::string& name,
    std::pair<std::size_t, std::size_t>* range_out) {
  const Tokens& t = file.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].is_ident("enum")) continue;
    std::size_t j = i + 1;
    if (j < t.size() && (t[j].is_ident("class") || t[j].is_ident("struct")))
      ++j;
    if (j >= t.size() || !t[j].is_ident(name)) continue;
    std::size_t open = t.size();
    for (std::size_t k = j + 1; k < t.size(); ++k) {
      if (t[k].is_punct(";")) break;  // forward declaration
      if (t[k].is_punct("{")) {
        open = k;
        break;
      }
    }
    if (open == t.size()) continue;
    const std::size_t close = match_brace(t, open);
    std::vector<Decl> out;
    bool expect_name = true;
    for (std::size_t k = open + 1; k < close; ++k) {
      if (expect_name && t[k].kind == Token::Kind::kIdent) {
        out.push_back(Decl{t[k].text, t[k].line});
        expect_name = false;
      } else if (t[k].is_punct(",")) {
        expect_name = true;
      }
    }
    if (range_out != nullptr) *range_out = {open, close};
    return out;
  }
  return std::nullopt;
}

/// Member names accessed as `<root><accessor><member>` in [from, to].
std::set<std::string> accessed_members(const SourceFile& file,
                                       std::size_t from, std::size_t to,
                                       const std::string& root,
                                       const std::string& accessor) {
  const Tokens& t = file.tokens;
  std::set<std::string> out;
  for (std::size_t i = from; i + 2 <= to && i + 2 < t.size(); ++i) {
    if (t[i].is_ident(root) && t[i + 1].is_punct(accessor) &&
        t[i + 2].kind == Token::Kind::kIdent)
      out.insert(t[i + 2].text);
  }
  return out;
}

std::set<std::string> ident_set(const SourceFile& file, std::size_t skip_from,
                                std::size_t skip_to) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < file.tokens.size(); ++i) {
    if (i >= skip_from && i <= skip_to) continue;
    if (file.tokens[i].kind == Token::Kind::kIdent)
      out.insert(file.tokens[i].text);
  }
  return out;
}

// ---- rule context -------------------------------------------------------

struct Context {
  const FileSet& files;
  std::vector<Finding> findings;

  const SourceFile* get(const std::string& path, std::string_view rule) {
    const auto it = files.find(path);
    if (it != files.end()) return &it->second;
    findings.push_back(Finding{path, 0, "lint-error", path,
                               std::string(rule) +
                                   ": configured file is missing from the "
                                   "scanned set"});
    return nullptr;
  }

  void add(std::string file, int line, std::string_view rule,
           std::string subject, std::string message) {
    findings.push_back(Finding{std::move(file), line, std::string(rule),
                               std::move(subject), std::move(message)});
  }
};

// ---- rule: fingerprint-coverage -----------------------------------------

void check_coverage(Context& ctx, const RuleConfig::Coverage& cov) {
  constexpr std::string_view kRule = "fingerprint-coverage";
  const SourceFile* header = ctx.get(cov.header, kRule);
  const SourceFile* impl = ctx.get(cov.impl, kRule);
  if (header == nullptr || impl == nullptr) return;

  const auto body = struct_body(*header, cov.struct_name);
  if (!body) {
    ctx.add(cov.header, 0, "lint-error", cov.struct_name,
            "struct " + cov.struct_name + " not found");
    return;
  }
  const auto fn = function_body(*impl, cov.function);
  if (!fn) {
    ctx.add(cov.impl, 0, "lint-error", cov.function,
            "serializer " + cov.function + "() not found");
    return;
  }
  const std::set<std::string> covered =
      accessed_members(*impl, fn->first, fn->second, cov.root, cov.accessor);
  for (const Decl& member :
       struct_members(*header, body->first, body->second)) {
    if (covered.count(member.name) != 0) continue;
    ctx.add(cov.header, member.line, kRule,
            cov.struct_name + "::" + member.name,
            "field '" + member.name + "' of " + cov.struct_name +
                " is not serialized by " + cov.function + "() in " +
                cov.impl +
                " — a config differing only in this field would fingerprint "
                "identically and be served a wrong cached result");
  }
}

// ---- rule: protocol-complete --------------------------------------------

void check_enum_mentions(Context& ctx, const RuleConfig::EnumMention& em) {
  constexpr std::string_view kRule = "protocol-complete";
  const SourceFile* header = ctx.get(em.header, kRule);
  if (header == nullptr) return;
  std::pair<std::size_t, std::size_t> enum_range{0, 0};
  const auto enumerators = enum_members(*header, em.enum_name, &enum_range);
  if (!enumerators) {
    ctx.add(em.header, 0, "lint-error", em.enum_name,
            "enum " + em.enum_name + " not found");
    return;
  }
  for (const std::string& mention_file : em.mention_in) {
    const SourceFile* target = ctx.get(mention_file, kRule);
    if (target == nullptr) continue;
    const bool self = mention_file == em.header;
    const std::set<std::string> idents =
        self ? ident_set(*target, enum_range.first, enum_range.second)
             : ident_set(*target, 1, 0);
    for (const Decl& e : *enumerators) {
      if (idents.count(e.name) != 0) continue;
      ctx.add(em.header, e.line, kRule, em.enum_name + "::" + e.name,
              "enumerator " + e.name + " has no handling/test site in " +
                  mention_file +
                  " — an unhandled message type fails only at runtime");
    }
  }
}

void check_codec_pairs(Context& ctx, const RuleConfig& rules) {
  constexpr std::string_view kRule = "protocol-complete";
  for (const std::string& path : rules.codec_pair_files) {
    const SourceFile* file = ctx.get(path, kRule);
    if (file == nullptr) continue;
    std::map<std::string, int> codecs;  // name -> first line
    for (const Token& tok : file->tokens) {
      if (tok.kind != Token::Kind::kIdent) continue;
      if (starts_with(tok.text, "encode_") || starts_with(tok.text, "decode_"))
        codecs.emplace(tok.text, tok.line);
    }
    for (const auto& [name, line] : codecs) {
      const bool is_encode = starts_with(name, "encode_");
      const std::string twin =
          (is_encode ? "decode_" : "encode_") + name.substr(7);
      if (codecs.count(twin) == 0) {
        ctx.add(path, line, kRule, twin,
                name + " has no matching " + twin +
                    " — a one-way codec cannot round-trip the wire format");
      }
      for (const std::string& mention_file : rules.codec_mention_in) {
        const SourceFile* target = ctx.get(mention_file, kRule);
        if (target == nullptr) continue;
        if (ident_set(*target, 1, 0).count(name) != 0) continue;
        ctx.add(path, line, kRule, name,
                "codec " + name + " is never exercised in " + mention_file);
      }
    }
  }
}

// ---- rules: nondet-source / nondet-container ----------------------------

constexpr std::array<std::string_view, 10> kBannedCalls = {
    "rand",  "srand",        "rand_r",    "drand48",  "random",
    "time",  "gettimeofday", "localtime", "gmtime",   "clock"};
constexpr std::array<std::string_view, 6> kBannedIdents = {
    "random_device", "steady_clock", "system_clock",
    "high_resolution_clock", "mt19937", "mt19937_64"};
constexpr std::array<std::string_view, 4> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

template <std::size_t N>
bool in(const std::array<std::string_view, N>& set, std::string_view s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

void check_deterministic_tu(Context& ctx, const std::string& path) {
  const SourceFile* file = ctx.get(path, "nondet-source");
  if (file == nullptr) return;
  const Tokens& t = file->tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const bool call = i + 1 < t.size() && t[i + 1].is_punct("(");
    if ((call && in(kBannedCalls, t[i].text)) ||
        in(kBannedIdents, t[i].text)) {
      ctx.add(path, t[i].line, "nondet-source", t[i].text,
              "'" + t[i].text +
                  "' in a deterministic translation unit — fingerprints, "
                  "canonical serialization and protocol codecs must be pure "
                  "functions of their inputs");
    }
    if (in(kUnorderedContainers, t[i].text)) {
      ctx.add(path, t[i].line, "nondet-container", t[i].text,
              "'" + t[i].text +
                  "' in a deterministic translation unit — hash-container "
                  "iteration order is stdlib-specific and must never reach "
                  "a fingerprint, wire payload or stat identity");
    }
  }
}

// ---- rule: raw-stdio ----------------------------------------------------

constexpr std::array<std::string_view, 11> kStdioIdents = {
    "printf", "fprintf", "vprintf", "vfprintf", "puts", "fputs",
    "putchar", "fputc",  "cout",    "cerr",     "clog"};

void check_raw_stdio(Context& ctx, const SourceFile& file) {
  for (const Token& tok : file.tokens) {
    if (tok.kind != Token::Kind::kIdent || !in(kStdioIdents, tok.text))
      continue;
    ctx.add(file.path, tok.line, "raw-stdio", tok.text,
            "direct '" + tok.text +
                "' in library code — route diagnostics through common/log "
                "(EREL_WARN / EREL_FATAL) so output stays atomic and "
                "grep-able");
  }
}

// ---- rule: stat-path ----------------------------------------------------

bool valid_stat_path(std::string_view path) {
  if (path.empty() || path.front() == '/' || path.back() == '/') return false;
  bool prev_slash = false;
  for (const char c : path) {
    if (c == '/') {
      if (prev_slash) return false;
      prev_slash = true;
      continue;
    }
    prev_slash = false;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

constexpr std::array<std::string_view, 3> kRegistryCalls = {
    "counter", "accum", "channel"};

struct StatSite {
  std::string path;  // the literal
  std::string file;
  int line = 0;
};

void collect_stat_sites(const SourceFile& file, std::vector<StatSite>& out) {
  const Tokens& t = file.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    // Direct registration with a literal: registry.counter("a/b").
    if (in(kRegistryCalls, t[i].text) && i + 2 < t.size() &&
        t[i + 1].is_punct("(") &&
        t[i + 2].kind == Token::Kind::kString) {
      out.push_back(StatSite{t[i + 2].text, file.path, t[i + 2].line});
      continue;
    }
    // Path constant: `constexpr std::string_view kStatX = "a/b";` (also
    // arrays of leaves). Constants outside the kStat/kChannel prefixes
    // count only when the literal contains '/', so unrelated k-constants
    // never trip the rule.
    if (t[i].text == "string_view" && i + 1 < t.size() &&
        t[i + 1].kind == Token::Kind::kIdent && t[i + 1].text.front() == 'k') {
      const std::string& name = t[i + 1].text;
      const bool stat_named =
          starts_with(name, "kStat") || starts_with(name, "kChannel");
      for (std::size_t j = i + 2; j < t.size() && j < i + 64; ++j) {
        if (t[j].is_punct(";")) break;
        if (t[j].kind != Token::Kind::kString) continue;
        if (stat_named ||
            t[j].text.find('/') != std::string::npos)
          out.push_back(StatSite{t[j].text, file.path, t[j].line});
      }
    }
  }
}

void check_stat_paths(Context& ctx, const std::vector<StatSite>& sites) {
  std::map<std::string, const StatSite*> defined;
  for (const StatSite& site : sites) {
    if (!valid_stat_path(site.path)) {
      ctx.add(site.file, site.line, "stat-path", site.path,
              "stat path \"" + site.path +
                  "\" violates the naming convention (lowercase "
                  "[a-z0-9_] components, '/'-separated)");
    }
    const auto [it, inserted] = defined.emplace(site.path, &site);
    if (!inserted) {
      ctx.add(site.file, site.line, "stat-path", site.path,
              "stat path \"" + site.path + "\" already defined at " +
                  it->second->file + ":" + std::to_string(it->second->line) +
                  " — two subsystems would silently share one metric");
    }
  }
}

// ---- exemptions ---------------------------------------------------------

struct InlineAllow {
  std::string rule;
  int line = 0;
};

/// Extracts inline directives from a file's comments: the marker, then
/// allow(rule-name), then a colon and a free-text justification (grammar
/// spelled out in docs/lint.md — not here, or this very comment would
/// parse as a directive). A directive with an unknown rule or an empty
/// justification is itself a finding.
std::vector<InlineAllow> inline_allows(const SourceFile& file,
                                       std::vector<Finding>& findings) {
  std::vector<InlineAllow> out;
  constexpr std::string_view kMarker = "erel-lint:";
  for (const Comment& comment : file.comments) {
    std::size_t pos = comment.text.find(kMarker);
    if (pos == std::string::npos) continue;
    std::string_view rest =
        trim(std::string_view(comment.text).substr(pos + kMarker.size()));
    const auto bad = [&](const std::string& why) {
      findings.push_back(Finding{file.path, comment.line, "bad-exemption",
                                 std::string(kMarker), why});
    };
    if (!starts_with(rest, "allow(")) {
      bad("malformed erel-lint directive (expected allow(<rule>): <reason>)");
      continue;
    }
    rest.remove_prefix(6);
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      bad("unterminated allow(<rule>) directive");
      continue;
    }
    const std::string rule{trim(rest.substr(0, close))};
    std::string_view reason = trim(rest.substr(close + 1));
    if (starts_with(reason, ":")) reason = trim(reason.substr(1));
    if (!known_rule(rule)) {
      bad("allow() names unknown rule '" + rule + "'");
      continue;
    }
    if (reason.empty()) {
      bad("allow(" + rule +
          ") carries no justification — every exemption must say why");
      continue;
    }
    out.push_back(InlineAllow{rule, comment.line});
  }
  return out;
}

}  // namespace

// ---- allowlist ----------------------------------------------------------

std::vector<AllowEntry> parse_allowlist(const std::string& path,
                                        std::string_view text,
                                        std::vector<Finding>& findings) {
  std::vector<AllowEntry> entries;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    line = trim(line);
    if (line.empty() || line.front() == '#') continue;
    const auto bad = [&](const std::string& why) {
      findings.push_back(
          Finding{path, line_no, "bad-exemption", std::string(line), why});
    };
    const std::size_t sep = line.find(" -- ");
    if (sep == std::string_view::npos) {
      bad("allowlist line has no ' -- <justification>' suffix");
      continue;
    }
    const std::string_view head = trim(line.substr(0, sep));
    const std::string_view reason = trim(line.substr(sep + 4));
    const std::size_t space = head.find(' ');
    if (space == std::string_view::npos || reason.empty()) {
      bad("allowlist line must be '<rule> <subject> -- <justification>'");
      continue;
    }
    const std::string rule{head.substr(0, space)};
    const std::string subject{trim(head.substr(space + 1))};
    if (!known_rule(rule)) {
      bad("allowlist names unknown rule '" + rule + "'");
      continue;
    }
    entries.push_back(
        AllowEntry{rule, subject, std::string(reason), line_no});
  }
  return entries;
}

// ---- orchestration ------------------------------------------------------

std::vector<Finding> run_rules(const FileSet& files, const RuleConfig& rules,
                               const std::vector<AllowEntry>& allows,
                               const std::string& allowlist_path) {
  Context ctx{files, {}};

  for (const RuleConfig::Coverage& cov : rules.coverage)
    check_coverage(ctx, cov);
  for (const RuleConfig::EnumMention& em : rules.enums)
    check_enum_mentions(ctx, em);
  check_codec_pairs(ctx, rules);
  for (const std::string& path : rules.deterministic_tus)
    check_deterministic_tu(ctx, path);

  std::vector<StatSite> stat_sites;
  for (const std::string& path : rules.library_files) {
    const auto it = files.find(path);
    if (it == files.end()) continue;  // listed but unreadable: already fatal
    check_raw_stdio(ctx, it->second);
    collect_stat_sites(it->second, stat_sites);
  }
  check_stat_paths(ctx, stat_sites);

  // Inline directives: collect (and validate) across every scanned file.
  std::map<std::string, std::vector<InlineAllow>> inline_by_file;
  for (const auto& [path, file] : files)
    inline_by_file[path] = inline_allows(file, ctx.findings);

  // Filter findings through both exemption mechanisms. Meta findings
  // (bad-exemption, stale-allow, lint-error) are never suppressible.
  std::vector<bool> allow_used(allows.size(), false);
  std::vector<Finding> kept;
  for (Finding& f : ctx.findings) {
    const bool meta = !known_rule(f.rule);
    bool suppressed = false;
    if (!meta) {
      if (const auto it = inline_by_file.find(f.file);
          it != inline_by_file.end()) {
        for (const InlineAllow& a : it->second) {
          if (a.rule == f.rule && (a.line == f.line || a.line == f.line - 1)) {
            suppressed = true;
            break;
          }
        }
      }
      for (std::size_t i = 0; i < allows.size() && !suppressed; ++i) {
        const AllowEntry& a = allows[i];
        if (a.rule == f.rule &&
            (a.subject == f.subject || a.subject == f.file)) {
          suppressed = true;
          allow_used[i] = true;
        }
      }
    }
    if (!suppressed) kept.push_back(std::move(f));
  }
  for (std::size_t i = 0; i < allows.size(); ++i) {
    if (allow_used[i]) continue;
    kept.push_back(Finding{
        allowlist_path, allows[i].line, "stale-allow",
        allows[i].rule + " " + allows[i].subject,
        "allowlist entry matches no finding — delete it (or the invariant "
        "it excuses has silently come back into force)"});
  }

  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.subject, a.message) <
           std::tie(b.file, b.line, b.rule, b.subject, b.message);
  });
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  return kept;
}

std::string format_findings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file;
    out += ':';
    out += std::to_string(f.line);
    out += ": [";
    out += f.rule;
    out += "] ";
    out += f.message;
    out += '\n';
  }
  return out;
}

}  // namespace erel::lint
