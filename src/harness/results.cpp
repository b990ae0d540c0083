#include "harness/results.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "common/log.hpp"
#include "common/record.hpp"

namespace erel::harness {

namespace {

// ---------------------------------------------------------------------------
// Exhaustive field visitors. `Stats` is (const) SimStats / SampledStats, so
// the same enumeration serves serialization (const ref, record::Writer) and
// parsing (mutable ref, record::Reader); a field added to the structs
// without a line here fails the round-trip test rather than silently
// dropping data.
// ---------------------------------------------------------------------------

template <class Stats, class Fn>
void sim_stats_fields(Stats& s, Fn&& f, const std::string& p) {
  f(p + "cycles", s.cycles);
  f(p + "committed", s.committed);
  f(p + "halted", s.halted);
  f(p + "branches.cond_branches", s.branches.cond_branches);
  f(p + "branches.cond_mispredicts", s.branches.cond_mispredicts);
  f(p + "branches.indirect_jumps", s.branches.indirect_jumps);
  f(p + "branches.indirect_mispredicts", s.branches.indirect_mispredicts);
  f(p + "stalls.ros_full", s.stalls.ros_full);
  f(p + "stalls.lsq_full", s.stalls.lsq_full);
  f(p + "stalls.checkpoints_full", s.stalls.checkpoints_full);
  f(p + "stalls.free_list_empty", s.stalls.free_list_empty);
  f(p + "flushes_injected", s.flushes_injected);
  f(p + "icache_stall_cycles", s.icache_stall_cycles);
  for (int c = 0; c < 2; ++c) {
    const std::string pc = p + (c == 0 ? "int." : "fp.");
    auto& ps = s.policy_stats[c];
    f(pc + "conventional_releases", ps.conventional_releases);
    f(pc + "early_commit_releases", ps.early_commit_releases);
    f(pc + "immediate_releases", ps.immediate_releases);
    f(pc + "reuses", ps.reuses);
    f(pc + "branch_confirm_releases", ps.branch_confirm_releases);
    f(pc + "conditional_schedulings", ps.conditional_schedulings);
    f(pc + "fallback_conventional", ps.fallback_conventional);
    f(pc + "stale_suppressed", ps.stale_suppressed);
    auto& occ = s.occupancy[c];
    f(pc + "avg_empty", occ.avg_empty);
    f(pc + "avg_ready", occ.avg_ready);
    f(pc + "avg_idle", occ.avg_idle);
    f(pc + "squash_released", s.squash_released[c]);
  }
  const auto cache = [&](const char* name, auto& cs) {
    const std::string pcache = p + name;
    f(pcache + ".accesses", cs.accesses);
    f(pcache + ".misses", cs.misses);
    f(pcache + ".writebacks", cs.writebacks);
  };
  cache("l1i", s.l1i);
  cache("l1d", s.l1d);
  cache("l2", s.l2);
}

template <class Stats, class Fn>
void sampled_moment_fields(Stats& s, Fn&& f) {
  f("sampled.cpi_mean", s.cpi_mean);
  f("sampled.cpi_stddev", s.cpi_stddev);
  f("sampled.cpi_stderr", s.cpi_stderr);
  f("sampled.ipc_mean", s.ipc_mean);
  f("sampled.ipc_stddev", s.ipc_stddev);
  f("sampled.ipc_stderr", s.ipc_stderr);
  f("sampled.ipc_ci95", s.ipc_ci95);
  f("sampled.total_instructions", s.total_instructions);
  f("sampled.measured_instructions", s.measured_instructions);
  f("sampled.detailed_instructions", s.detailed_instructions);
  f("sampled.units_planned", s.units_planned);
  f("sampled.degenerate_windows", s.degenerate_windows);
}

void csv_field(std::string& out, const std::string& value) {
  if (value.find_first_of(",\"\n") == std::string::npos) {
    out += value;
    return;
  }
  out += '"';
  for (const char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return record::format_double(v);
}

void write_file_or_die(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EREL_CHECK(out.good(), "cannot open '", path, "' for writing");
  out << content;
  out.flush();
  EREL_CHECK(out.good(), "short write to '", path, "'");
}

}  // namespace

std::string ExpKey::to_string() const {
  std::string s = workload;
  s += '/';
  s += policy_name(policy);
  s += '/';
  s += std::to_string(phys);
  if (!variant.empty()) {
    s += '/';
    s += variant;
  }
  return s;
}

std::optional<double> ExpEntry::metric(std::string_view name) const {
  for (const sim::Metric& m : metrics)
    if (m.name == name) return m.value;
  return std::nullopt;
}

void ResultSet::add(ExpEntry entry) {
  EREL_CHECK(!contains(entry.key), "duplicate experiment cell ",
             entry.key.to_string());
  entries_.push_back(std::move(entry));
}

const ExpEntry* ResultSet::find(const ExpKey& key) const {
  for (const ExpEntry& e : entries_)
    if (e.key == key) return &e;
  return nullptr;
}

bool ResultSet::contains(const ExpKey& key) const {
  return find(key) != nullptr;
}

const ExpEntry& ResultSet::at(const ExpKey& key) const {
  const ExpEntry* e = find(key);
  if (!e) EREL_FATAL("no result for cell ", key.to_string());
  return *e;
}

const sim::SimStats& ResultSet::stats(const ExpKey& key) const {
  return at(key).stats;
}

double ResultSet::ipc(const ExpKey& key) const { return at(key).stats.ipc(); }

namespace {
template <class T, class Proj>
std::vector<T> unique_in_order(const std::vector<ExpEntry>& entries,
                               Proj&& proj) {
  std::vector<T> out;
  for (const ExpEntry& e : entries) {
    const T v = proj(e);
    bool seen = false;
    for (const T& u : out) seen = seen || u == v;
    if (!seen) out.push_back(v);
  }
  return out;
}
}  // namespace

std::vector<std::string> ResultSet::workloads() const {
  return unique_in_order<std::string>(
      entries_, [](const ExpEntry& e) { return e.key.workload; });
}

std::vector<core::PolicyKind> ResultSet::policies() const {
  return unique_in_order<core::PolicyKind>(
      entries_, [](const ExpEntry& e) { return e.key.policy; });
}

std::vector<unsigned> ResultSet::phys_sizes() const {
  return unique_in_order<unsigned>(
      entries_, [](const ExpEntry& e) { return e.key.phys; });
}

std::vector<std::string> ResultSet::variants() const {
  return unique_in_order<std::string>(
      entries_, [](const ExpEntry& e) { return e.key.variant; });
}

std::vector<std::string> ResultSet::metric_names() const {
  std::vector<std::string> names;
  for (const ExpEntry& e : entries_) {
    for (const sim::Metric& m : e.metrics) {
      bool seen = false;
      for (const std::string& n : names) seen = seen || n == m.name;
      if (!seen) names.push_back(m.name);
    }
  }
  return names;
}

double ResultSet::hmean_ipc(const std::vector<std::string>& names,
                            core::PolicyKind policy, unsigned phys,
                            const std::string& variant) const {
  if (names.empty()) return 0.0;
  double inv_sum = 0.0;
  for (const std::string& w : names) {
    const double ipc = at({w, policy, phys, variant}).stats.ipc();
    if (ipc <= 0.0) return 0.0;  // harmonic-mean limit (harness::harmonic_mean)
    inv_sum += 1.0 / ipc;
  }
  return static_cast<double>(names.size()) / inv_sum;
}

double ResultSet::hmean_ipc_ci95(const std::vector<std::string>& names,
                                 core::PolicyKind policy, unsigned phys,
                                 const std::string& variant) const {
  const double h = hmean_ipc(names, policy, phys, variant);
  if (h <= 0.0 || names.empty()) return 0.0;
  const double n = static_cast<double>(names.size());
  double var = 0.0;
  for (const std::string& w : names) {
    const ExpEntry& e = at({w, policy, phys, variant});
    const double ipc = e.stats.ipc();
    const double ci = e.ipc_ci95();
    if (ci <= 0.0 || ipc <= 0.0) continue;  // exact cell: no contribution
    const double d = (h * h) / (n * ipc * ipc) * ci;
    var += d * d;
  }
  return std::sqrt(var);
}

double ResultSet::speedup_vs(const std::vector<std::string>& names,
                             core::PolicyKind policy,
                             core::PolicyKind baseline, unsigned phys,
                             const std::string& variant) const {
  const double base = hmean_ipc(names, baseline, phys, variant);
  const double val = hmean_ipc(names, policy, phys, variant);
  if (base <= 0.0 || val <= 0.0)
    return std::numeric_limits<double>::quiet_NaN();
  return val / base - 1.0;
}

std::size_t ResultSet::cache_hits() const {
  std::size_t hits = 0;
  for (const ExpEntry& e : entries_) hits += e.from_cache ? 1 : 0;
  return hits;
}

void ResultSet::write_csv(const std::string& path) const {
  std::string out =
      "workload,policy,phys,variant,kind,cached,committed,cycles,ipc,"
      "ipc_ci95,cond_accuracy,l1d_miss_rate,freelist_stalls";
  // Open named-metric columns (Instrumentation API v2): the union of probe
  // metrics across cells, first-seen order; cells without a metric leave
  // the field empty.
  const std::vector<std::string> metric_cols = metric_names();
  for (const std::string& name : metric_cols) {
    out += ',';
    csv_field(out, name);
  }
  out += '\n';
  for (const ExpEntry& e : entries_) {
    csv_field(out, e.key.workload);
    out += ',';
    out += policy_name(e.key.policy);
    out += ',';
    out += std::to_string(e.key.phys);
    out += ',';
    csv_field(out, e.key.variant);
    out += ',';
    out += e.sampled ? "sampled" : "full";
    out += ',';
    out += e.from_cache ? '1' : '0';
    out += ',';
    out += std::to_string(e.stats.committed);
    out += ',';
    out += std::to_string(e.stats.cycles);
    out += ',';
    out += record::format_double(e.stats.ipc());
    out += ',';
    out += record::format_double(e.ipc_ci95());
    out += ',';
    out += record::format_double(e.stats.branches.cond_accuracy());
    out += ',';
    out += record::format_double(e.stats.l1d.miss_rate());
    out += ',';
    out += std::to_string(e.stats.stalls.free_list_empty);
    for (const std::string& name : metric_cols) {
      out += ',';
      if (const std::optional<double> v = e.metric(name))
        out += record::format_double(*v);
    }
    out += '\n';
  }
  write_file_or_die(path, out);
}

void ResultSet::write_json(const std::string& path) const {
  std::string out = "{\n  \"schema\": \"erel-resultset-v1\",\n  \"cells\": [";
  bool first_cell = true;
  for (const ExpEntry& e : entries_) {
    out += first_cell ? "\n" : ",\n";
    first_cell = false;
    out += "    {\n";
    out += "      \"workload\": \"" + json_escape(e.key.workload) + "\",\n";
    out += "      \"policy\": \"" + std::string(policy_name(e.key.policy)) +
           "\",\n";
    out += "      \"phys\": " + std::to_string(e.key.phys) + ",\n";
    out += "      \"variant\": \"" + json_escape(e.key.variant) + "\",\n";
    out += std::string("      \"kind\": ") +
           (e.sampled ? "\"sampled\"" : "\"full\"") + ",\n";
    out += std::string("      \"from_cache\": ") +
           (e.from_cache ? "true" : "false") + ",\n";
    out += "      \"ipc\": " + json_number(e.stats.ipc()) + ",\n";
    out += "      \"ipc_ci95\": " + json_number(e.ipc_ci95()) + ",\n";
    out += "      \"stats\": {";
    bool first = true;
    const auto emit = [&out, &first](const std::string& name, const auto& v) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "        \"" + name + "\": ";
      using T = std::decay_t<decltype(v)>;
      if constexpr (std::is_same_v<T, bool>) {
        out += v ? "true" : "false";
      } else if constexpr (std::is_same_v<T, double>) {
        out += json_number(v);
      } else {
        out += std::to_string(v);
      }
    };
    sim_stats_fields(e.stats, emit, "");
    out += "\n      }";
    if (!e.metrics.empty()) {
      out += ",\n      \"metrics\": {";
      bool first_metric = true;
      for (const sim::Metric& m : e.metrics) {
        out += first_metric ? "\n" : ",\n";
        first_metric = false;
        out += "        \"" + json_escape(m.name) +
               "\": " + json_number(m.value);
      }
      out += "\n      }";
    }
    if (e.sampled) {
      const sim::SampledStats& s = *e.sampled;
      out += ",\n      \"sampled\": {";
      first = true;
      sim_stats_fields(s.estimate, emit, "estimate.");
      sim_stats_fields(s.measured, emit, "measured.");
      sampled_moment_fields(s, [&emit](const std::string& name, const auto& v) {
        // Strip the "sampled." prefix: these live inside the object already.
        emit(name.substr(8), v);
      });
      out += ",\n        \"samples\": [";
      for (std::size_t i = 0; i < s.samples.size(); ++i) {
        if (i) out += ", ";
        out += '[' + std::to_string(s.samples[i].start_instruction) + ", " +
               std::to_string(s.samples[i].instructions) + ", " +
               std::to_string(s.samples[i].cycles) + ']';
      }
      out += "]\n      }";
    }
    out += "\n    }";
  }
  out += "\n  ]\n}\n";
  write_file_or_die(path, out);
}

// ---------------------------------------------------------------------------
// Cache-entry serialization.
// ---------------------------------------------------------------------------

std::string serialize_entry(const ExpEntry& entry, std::string_view fp_hex) {
  std::string out = "erel-result v1\n";
  const record::Writer write(out, ' ');
  write("fingerprint", fp_hex);
  write("key.workload", entry.key.workload);
  write("key.policy", policy_name(entry.key.policy));
  write("key.phys", entry.key.phys);
  write("key.variant", entry.key.variant);
  write("kind", entry.sampled ? "sampled" : "full");
  sim_stats_fields(entry.stats, write, "stats.");
  if (entry.sampled) {
    const sim::SampledStats& s = *entry.sampled;
    sim_stats_fields(s.estimate, write, "sampled.estimate.");
    sim_stats_fields(s.measured, write, "sampled.measured.");
    sampled_moment_fields(s, write);
    write("samples", s.samples.size());
    for (const sim::SampleRecord& r : s.samples) {
      write("s", std::to_string(r.start_instruction) + ' ' +
                     std::to_string(r.instructions) + ' ' +
                     std::to_string(r.cycles));
    }
  }
  for (const sim::Metric& m : entry.metrics) {
    EREL_CHECK(!m.name.empty() &&
                   m.name.find_first_of(" \n") == std::string::npos,
               "metric name '", m.name, "' is not serializable");
    write("metric." + m.name, m.value);
  }
  out += "end\n";
  return out;
}

std::optional<ExpEntry> parse_entry(std::string_view text,
                                    std::string_view expect_fp_hex,
                                    const ExpKey& expect_key) {
  const std::optional<std::string_view> body =
      record::body(text, "erel-result v1");
  if (!body) return std::nullopt;
  record::FieldMap fields;
  std::vector<sim::SampleRecord> samples;
  std::vector<sim::Metric> metrics;
  record::Lines lines(*body);
  for (std::string_view line; lines.next(line);) {
    const std::optional<record::Field> field = record::split(line, ' ');
    if (!field) return std::nullopt;
    if (field->name == "s") {
      // Exactly three integers, one space apart.
      const auto a = record::split(field->value, ' ');
      const auto b = a ? record::split(a->value, ' ') : std::nullopt;
      sim::SampleRecord r;
      if (!b || !record::parse(a->name, r.start_instruction) ||
          !record::parse(b->name, r.instructions) ||
          !record::parse(b->value, r.cycles))
        return std::nullopt;
      samples.push_back(r);
    } else if (field->name.starts_with("metric.")) {
      // Open probe metrics: names are free-form, values strict doubles.
      sim::Metric m{std::string(field->name.substr(7)), 0.0};
      if (m.name.empty() || !record::parse(field->value, m.value))
        return std::nullopt;
      metrics.push_back(std::move(m));
    } else if (!record::add(fields, *field)) {
      return std::nullopt;
    }
  }

  record::Reader read(fields);
  std::string fp_hex, workload, policy, variant, kind;
  unsigned phys = 0;
  read("fingerprint", fp_hex);
  read("key.workload", workload);
  read("key.policy", policy);
  read("key.phys", phys);
  read("key.variant", variant);  // a label alias is fine: see below
  read("kind", kind);
  ExpEntry entry;
  entry.key = expect_key;
  entry.from_cache = true;
  entry.metrics = std::move(metrics);
  sim_stats_fields(entry.stats, read, "stats.");
  if (kind == "sampled") {
    sim::SampledStats& s = entry.sampled.emplace();
    sim_stats_fields(s.estimate, read, "sampled.estimate.");
    sim_stats_fields(s.measured, read, "sampled.measured.");
    sampled_moment_fields(s, read);
    std::uint64_t declared_samples = 0;
    read("samples", declared_samples);
    if (samples.size() != declared_samples) return std::nullopt;
    s.samples = std::move(samples);
  } else if (kind != "full" || !samples.empty()) {
    return std::nullopt;
  }
  // Each field of the entry's kind exactly once, and nothing else.
  if (!read.complete() || fp_hex != expect_fp_hex) return std::nullopt;
  // Equal fingerprints imply identical results (the hash covers the
  // workload's content and every config field) but not identical variant
  // labels: different vary() labelings can mutate a config into the same
  // values, and the entry must serve all of them instead of thrashing.
  // Everything the hash does pin must agree, though — a mismatch there is
  // corruption or a hash collision, never a legitimate alias.
  if (workload != expect_key.workload ||
      policy != policy_name(expect_key.policy) || phys != expect_key.phys)
    return std::nullopt;
  return entry;
}

}  // namespace erel::harness
