// Branch target buffer for indirect jumps (JALR that is not a return). The
// simulator predecodes at fetch, so direct branch/jump targets are computed
// from the instruction; only indirect targets need prediction.
//
// An entry is its tag (the jump's PC) and target, nothing more. As in
// mem::Cache, recency is the order of the entries within their set, most
// recently updated first, and each set counts its filled entries, which
// lead it: a new target enters at the front, evicting the last entry once
// the set is full — the least recently updated, as a global LRU clock would
// pick.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace erel::branch {

class Btb {
 public:
  /// `entries` must be a power of two; `ways` divides it.
  explicit Btb(unsigned entries = 2048, unsigned ways = 4);

  /// Last-seen target for `pc`, if any.
  [[nodiscard]] std::optional<std::uint64_t> lookup(std::uint64_t pc) const;

  /// Records the resolved target of an indirect jump.
  void update(std::uint64_t pc, std::uint64_t target);

 private:
  struct Entry {
    std::uint64_t tag = 0;
    std::uint64_t target = 0;
  };

  [[nodiscard]] std::size_t set_of(std::uint64_t pc) const;

  unsigned ways_;
  std::size_t sets_;
  std::vector<Entry> entries_;   // set-contiguous, most recent first
  std::vector<unsigned> filled_;  // per set: entries holding a target
};

}  // namespace erel::branch
