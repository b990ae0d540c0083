#include "sim/probe.hpp"

namespace erel::sim {

Probe::~Probe() = default;

void Probe::on_run_begin(const SimConfig& config, StatRegistry& registry) {
  (void)config;
  (void)registry;
}

void Probe::on_run_end(StatRegistry& registry) { (void)registry; }

void Probe::export_metrics(const SimConfig& config,
                           const StatRegistry& registry,
                           std::vector<Metric>& out) const {
  (void)config, (void)registry, (void)out;
}

}  // namespace erel::sim
