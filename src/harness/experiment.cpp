#include "harness/experiment.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/log.hpp"
#include "harness/fingerprint.hpp"
#include "harness/remote.hpp"
#include "harness/result_cache.hpp"

namespace erel::harness {

Experiment::Experiment() { base_.check_oracle = false; }

Experiment& Experiment::base(sim::SimConfig config) {
  base_ = std::move(config);
  return *this;
}

Experiment& Experiment::workloads(std::vector<std::string> names) {
  workloads_ = std::move(names);
  return *this;
}

Experiment& Experiment::policies(std::vector<core::PolicyKind> kinds) {
  policies_ = std::move(kinds);
  return *this;
}

Experiment& Experiment::phys_regs(std::vector<unsigned> sizes) {
  phys_ = std::move(sizes);
  return *this;
}

Experiment& Experiment::vary(std::string axis, std::vector<AxisPoint> points) {
  EREL_CHECK(!points.empty(), "vary axis '", axis, "' has no points");
  axes_.push_back(Axis{std::move(axis), std::move(points)});
  return *this;
}

Experiment& Experiment::sampling(sim::SamplingConfig config) {
  sampling_ = config;
  return *this;
}

Experiment& Experiment::probe(std::string name) {
  EREL_CHECK(make_probe(name) != nullptr, "unknown probe '", name, "'");
  EREL_CHECK(std::find(probes_.begin(), probes_.end(), name) == probes_.end(),
             "duplicate probe '", name, "'");
  probes_.push_back(std::move(name));
  return *this;
}

std::vector<Experiment::Cell> Experiment::materialize() const {
  EREL_CHECK(!workloads_.empty(), "experiment has no workloads");
  const std::vector<core::PolicyKind> policies =
      policies_.empty() ? std::vector<core::PolicyKind>{base_.policy}
                        : policies_;
  // An empty phys axis keeps the base config's (possibly asymmetric) sizes;
  // the key then records phys_int as the nominal coordinate.
  const bool sweep_phys = !phys_.empty();
  const std::vector<unsigned> sizes =
      sweep_phys ? phys_ : std::vector<unsigned>{base_.phys_int};

  // Cross-multiply the vary() axes into (variant label, combined mutator)
  // pairs, declaration order, last axis fastest.
  struct Variant {
    std::string label;
    std::vector<const AxisPoint*> points;
  };
  std::vector<Variant> variants{{std::string(), {}}};
  for (const Axis& axis : axes_) {
    std::vector<Variant> next;
    next.reserve(variants.size() * axis.points.size());
    for (const Variant& v : variants) {
      for (const AxisPoint& point : axis.points) {
        Variant combined = v;
        if (!combined.label.empty()) combined.label += ',';
        combined.label += axis.name + '=' + point.label;
        combined.points.push_back(&point);
        next.push_back(std::move(combined));
      }
    }
    variants = std::move(next);
  }

  std::vector<Cell> cells;
  cells.reserve(workloads_.size() * policies.size() * sizes.size() *
                variants.size());
  for (const std::string& workload : workloads_) {
    for (const core::PolicyKind policy : policies) {
      for (const unsigned phys : sizes) {
        for (const Variant& variant : variants) {
          sim::SimConfig config = base_;
          config.policy = policy;
          if (sweep_phys) {
            config.phys_int = phys;
            config.phys_fp = phys;
          }
          for (const AxisPoint* point : variant.points)
            point->apply(config);
          Cell cell;
          cell.key = ExpKey{workload, policy, phys, variant.label};
          cell.spec = RunSpec{workload, std::move(config), sampling_,
                              probes_};
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

ResultSet Experiment::run(const RunOptions& opts) const {
  const std::vector<Cell> cells = materialize();
  const bool use_cache = !opts.cache_dir.empty();
  const bool use_server = !opts.server.empty();
  if (use_cache) {
    std::error_code ec;
    std::filesystem::create_directories(opts.cache_dir, ec);
    EREL_CHECK(!ec, "cannot create cache dir '", opts.cache_dir, "': ",
               ec.message());
  }

  std::vector<std::optional<ExpEntry>> ready(cells.size());
  std::vector<std::string> cache_path(cells.size());
  std::vector<std::string> fp_hex(cells.size());
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    if (use_cache || use_server) {
      fp_hex[i] = fingerprint_cell(cell.spec.workload, cell.spec.config,
                                   cell.spec.sampling, cell.spec.probes)
                      .hex();
      if (use_cache) {
        cache_path[i] = cache_entry_path(opts.cache_dir, fp_hex[i]);
        ready[i] = load_cache_entry(cache_path[i], fp_hex[i], cell.key);
        if (ready[i]) continue;
      }
    }
    pending.push_back(i);
  }

  // Server routing: ship every miss to the daemon and fold its replies
  // into `ready`; anything the daemon cannot serve — including all of
  // them, when it is unreachable — falls through to the local pool.
  if (use_server && !pending.empty()) {
    RemoteBackend remote(opts.server, opts.remote);
    if (!remote.connect()) {
      EREL_WARN("experiment server ", opts.server, " unreachable (",
                remote.error(), "); simulating ", pending.size(),
                " cell(s) locally");
    } else {
      // Dispatch every cell, then await each once; the client owns every
      // retry. Failures are summarized once per sweep (like the
      // connect-failure path above): a dying daemon would otherwise emit
      // one warning per outstanding cell.
      std::vector<std::pair<std::size_t, std::optional<std::uint64_t>>>
          shipped;
      for (const std::size_t i : pending)
        shipped.emplace_back(
            i, remote.dispatch(cells[i].key, cells[i].spec, fp_hex[i]));
      std::vector<std::size_t> local;
      std::size_t failures = 0;
      std::string first_why;
      for (const auto& [i, wire] : shipped) {
        std::optional<ExpEntry> entry;
        std::string raw_text;
        std::string why;
        if (wire)
          entry = remote.await(*wire, cells[i].key, fp_hex[i], &raw_text, &why);
        else
          why = remote.error();
        if (!entry) {
          if (failures++ == 0) first_why = why;
          local.push_back(i);
          continue;
        }
        if (!cache_path[i].empty())
          save_cache_entry(cache_path[i], raw_text);
        ready[i] = std::move(entry);
      }
      if (failures > 0) {
        EREL_WARN(failures, " of ", shipped.size(),
                  " cell(s) not served by ", opts.server,
                  " (first failure: ", first_why,
                  "); simulating them locally");
      }
      pending = std::move(local);
    }
  }

  if (!pending.empty()) {
    std::vector<RunSpec> specs;
    specs.reserve(pending.size());
    for (const std::size_t i : pending) specs.push_back(cells[i].spec);
    const std::vector<RunResult> results = run_all(specs, opts.threads);
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const std::size_t i = pending[j];
      ExpEntry entry{cells[i].key, results[j].stats, results[j].sampled,
                     results[j].metrics, /*from_cache=*/false};
      if (!cache_path[i].empty())
        save_cache_entry(cache_path[i], serialize_entry(entry, fp_hex[i]));
      ready[i] = std::move(entry);
    }
  }

  ResultSet rs;
  for (std::optional<ExpEntry>& entry : ready) rs.add(std::move(*entry));
  return rs;
}

}  // namespace erel::harness
