// Map Table (speculative logical->physical mapping) and In-Order Map Table
// (IOMT, the architectural mapping updated at commit) — Figure 1 of the
// paper. Both carry a per-logical-register `stale` bit: set when the mapped
// version was released early while still architectural (the §4.3 situation),
// so that the next redefinition must not release or reuse it again. The
// paper's precise-exception argument relies on such versions being dead; the
// stale bit is the bookkeeping that makes the hardware single-release.
#pragma once

#include <array>
#include <cstdint>

#include "core/types.hpp"

namespace erel::core {

/// One logical->physical mapping with the stale (dead-version) bit.
struct Mapping {
  PhysReg phys = kNoReg;
  bool stale = false;
};

class MapTable {
 public:
  /// Identity-initializes: logical r -> physical r (the conventional reset
  /// state; requires at least kNumLogicalRegs physical registers).
  MapTable();

  [[nodiscard]] const Mapping& get(unsigned logical) const;

  /// Installs a new mapping; a fresh version is never stale.
  void set(unsigned logical, PhysReg phys);

  void mark_stale(unsigned logical);

 private:
  std::array<Mapping, isa::kNumLogicalRegs> map_;
};

/// The IOMT is structurally a MapTable updated in commit order.
using InOrderMapTable = MapTable;

}  // namespace erel::core
