// Shared types for the register-management core (the paper's contribution).
#pragma once

#include <cstdint>

#include "isa/isa.hpp"

namespace erel::core {

/// Physical register identifier within one class (int or FP).
using PhysReg = std::uint16_t;
inline constexpr PhysReg kNoReg = 0xffff;

/// Monotone dynamic instruction sequence number. The paper uses ROS
/// addresses as unique instruction identifiers; a monotone sequence is the
/// software equivalent that survives ROS wrap-around (ROS slot == seq % N).
using InstSeq = std::uint64_t;
inline constexpr InstSeq kNoSeq = ~std::uint64_t{0};

/// Register class index used for the per-class rename structures.
enum class RC : std::uint8_t { Int = 0, Fp = 1 };
inline constexpr unsigned kNumClasses = 2;

inline RC rc_from(isa::RegClass cls) {
  return cls == isa::RegClass::Fp ? RC::Fp : RC::Int;
}

/// Operand roles, matching the paper's LUs Table `Kind` field.
enum class UseKind : std::uint8_t { Src1 = 0, Src2 = 1, Dst = 2, Arch = 3 };

/// Early-release bit positions within RenameRec::rel_bits (paper: rel1, rel2,
/// reld in the extended ROS).
inline constexpr std::uint8_t kRel1 = 1u << 0;
inline constexpr std::uint8_t kRel2 = 1u << 1;
inline constexpr std::uint8_t kRelD = 1u << 2;

inline std::uint8_t rel_bit_for(UseKind kind) {
  switch (kind) {
    case UseKind::Src1: return kRel1;
    case UseKind::Src2: return kRel2;
    case UseKind::Dst: return kRelD;
    case UseKind::Arch: return 0;
  }
  return 0;
}

/// Per-instruction rename record: the fields the paper adds to the ROS
/// (Figure 5) plus the plumbing the simulator needs. One operand slot per
/// source; classes are those of the *architectural* operands.
struct RenameRec {
  // Logical register identifiers (paper: r1, r2, rd).
  std::uint8_t r1 = 0, r2 = 0, rd = 0;
  isa::RegClass c1 = isa::RegClass::None;
  isa::RegClass c2 = isa::RegClass::None;
  isa::RegClass cd = isa::RegClass::None;
  // Physical register identifiers (paper: p1, p2, pd, old_pd).
  PhysReg p1 = kNoReg, p2 = kNoReg, pd = kNoReg, old_pd = kNoReg;
  // Version tokens for the read-after-release safety check (see RegTracker).
  std::uint32_t p1_token = 0, p2_token = 0;
  // Stale bit of rd's previous mapping. Rename records it with old_pd, and
  // a squash puts both back into the Map Table.
  bool old_stale = false;
  // Previous-version release bit (paper: rel_old). Conventional release of
  // old_pd at commit happens only when set.
  bool rel_old = false;
  // Early-release bits (paper: rel1/rel2/reld, also the RwC0 level the
  // extended mechanism's deferred releases join while their LU is in
  // flight).
  std::uint8_t rel_bits = 0;
  // Basic mechanism, LU-already-committed case: NV reuses old_pd as its
  // destination without allocating from the free list.
  bool reused_prev = false;

  [[nodiscard]] bool has_dst() const { return cd != isa::RegClass::None; }
};

/// The pipeline state the release policies read: in-flight rename records
/// and unverified branches. Implemented by the OoO core, and by small fakes
/// in the policy and rename-unit tests.
class PipelineHooks {
 public:
  virtual ~PipelineHooks() = default;

  /// Rename record of an in-flight (renamed, not yet committed/squashed)
  /// instruction; nullptr otherwise. Policies set rel bits through it.
  virtual RenameRec* find_inflight(InstSeq seq) = 0;

  /// True if any *unverified* branch b satisfies lo < b.seq < hi. Basic asks
  /// it for (LU, NV): its Case-1 test (paper §3). Extended asks it for
  /// (0, NV): is NV speculative, and may its deferred release fire (§4)?
  virtual bool branch_pending_between(InstSeq lo, InstSeq hi) const = 0;
};

}  // namespace erel::core
