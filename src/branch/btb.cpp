#include "branch/btb.hpp"

#include "common/bits.hpp"
#include "common/log.hpp"

namespace erel::branch {

Btb::Btb(unsigned entries, unsigned ways) : ways_(ways) {
  EREL_CHECK(ways > 0 && entries % ways == 0);
  sets_ = entries / ways;
  EREL_CHECK(is_pow2(sets_));
  entries_.resize(entries);
  filled_.resize(sets_);
}

std::size_t Btb::set_of(std::uint64_t pc) const {
  return (pc >> 2) & (sets_ - 1);
}

std::optional<std::uint64_t> Btb::lookup(std::uint64_t pc) const {
  const std::size_t set = set_of(pc);
  const Entry* const set_entries = entries_.data() + set * ways_;
  for (unsigned w = 0; w < filled_[set]; ++w) {
    if (set_entries[w].tag == pc) return set_entries[w].target;
  }
  return std::nullopt;
}

void Btb::update(std::uint64_t pc, std::uint64_t target) {
  const std::size_t set = set_of(pc);
  Entry* const set_entries = entries_.data() + set * ways_;
  unsigned& filled = filled_[set];
  unsigned w = 0;
  while (w < filled && set_entries[w].tag != pc) ++w;
  if (w == ways_) {
    --w;  // a miss in a full set: the last entry leaves
  } else if (w == filled) {
    ++filled;  // a miss: one more entry holds a target
  }
  // The entries ahead of w move back one place; pc's goes to the front.
  for (; w > 0; --w) set_entries[w] = set_entries[w - 1];
  set_entries[0] = {pc, target};
}

}  // namespace erel::branch
