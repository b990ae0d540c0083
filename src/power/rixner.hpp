// Analytic register-file delay/energy model in the style of Rixner et al.,
// "Register Organization for Media Processing" (HPCA-6), for a 0.18 um
// process — the model the paper uses for Figure 9 and the §4.4 cost
// analysis.
//
// Functional form (constants: RixnerModel's private members below):
//   access time  t(P,T,w) = a + b*T + c*sqrt(P*w*(1 + d*T))   [ns]
//   energy       E(P,T,w) = e*(1 + f*T)*P*w                   [pJ/access]
// where P = registers, T = total ports, w = word bits. Constants are
// calibrated to the paper's anchors: the LUs Table (32 entries, 56 ports,
// 9 bits) at 0.98 ns / 193.2 pJ, the 40-entry integer file 26% slower than
// the LUs Table, and the §4.4 energy-balance comparison; tests/test_power.cpp
// checks each anchor.
#pragma once

namespace erel::power {

struct RfGeometry {
  unsigned registers = 0;
  unsigned ports = 0;
  unsigned word_bits = 0;
};

class RixnerModel {
 public:
  /// Access time in nanoseconds.
  [[nodiscard]] double access_time_ns(const RfGeometry& g) const;

  /// Energy per access in picojoules.
  [[nodiscard]] double energy_pj(const RfGeometry& g) const;

  // Geometry presets used throughout the paper's evaluation (§4.4: Tint=44,
  // Tfp=50 for the 8-way processor; LUs Table 32x9b with 32R+24W ports).
  [[nodiscard]] static RfGeometry int_file(unsigned registers) {
    return {registers, 44, 64};
  }
  [[nodiscard]] static RfGeometry fp_file(unsigned registers) {
    return {registers, 50, 64};
  }
  [[nodiscard]] static RfGeometry lus_table() { return {32, 56, 9}; }

 private:
  // Delay constants (ns-domain).
  static constexpr double kDelayBase = 0.2;
  static constexpr double kDelayPerPort = 0.009151;
  static constexpr double kDelayArray = 0.006136;
  static constexpr double kDelayPortArea = 0.1;
  // Energy constants (pJ-domain).
  static constexpr double kEnergyScale = 0.2071;
  static constexpr double kEnergyPerPort = 0.04;
};

}  // namespace erel::power
