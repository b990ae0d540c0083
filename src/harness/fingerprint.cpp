#include "harness/fingerprint.hpp"

#include <cstdio>

#include "workloads/workloads.hpp"

namespace erel::harness {

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

Fingerprint fingerprint_cell(const std::string& workload,
                             const sim::SimConfig& config,
                             const std::optional<sim::SamplingConfig>& sampling,
                             const std::vector<std::string>& probe_names) {
  std::string canon = "erel-fp-v1\n";
  canon += "workload=" + workload + "\n";
  const std::uint64_t content = fnv1a64(workloads::workload(workload).source);
  canon += "workload_content=" + std::to_string(content) + "\n";
  sim::append_canonical_fields(config, canon);
  if (sampling) {
    sim::append_canonical_fields(*sampling, canon);
  } else {
    canon += "sampling=none\n";
  }
  for (const std::string& name : probe_names) canon += "probe=" + name + "\n";
  return Fingerprint{fnv1a64(canon)};
}

}  // namespace erel::harness
