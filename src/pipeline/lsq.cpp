#include "pipeline/lsq.hpp"

#include "common/log.hpp"

namespace erel::pipeline {

namespace {

bool ranges_overlap(std::uint64_t a, unsigned a_size, std::uint64_t b,
                    unsigned b_size) {
  return a < b + b_size && b < a + a_size;
}

bool range_covers(std::uint64_t outer, unsigned outer_size, std::uint64_t inner,
                  unsigned inner_size) {
  return outer <= inner && inner + inner_size <= outer + outer_size;
}

}  // namespace

Lsq::Lsq(unsigned capacity) : capacity_(capacity) {
  EREL_CHECK(capacity > 0);
  std::size_t slots = 1;
  while (slots < capacity) slots <<= 1;
  slots_.resize(slots);
  mask_ = static_cast<std::uint32_t>(slots - 1);
}

void Lsq::push(core::InstSeq seq, bool is_store, unsigned size) {
  EREL_CHECK(!full(), "push into full LSQ");
  EREL_CHECK(size_ == 0 || nth(size_ - 1).seq < seq);
  LsqEntry& entry = nth(size_);
  entry = LsqEntry{};
  entry.seq = seq;
  entry.is_store = is_store;
  entry.size = static_cast<std::uint8_t>(size);
  ++size_;
}

const LsqEntry& Lsq::find(core::InstSeq seq) const {
  for (std::size_t i = 0; i < size_; ++i) {
    const LsqEntry& e = nth(i);
    if (e.seq == seq) return e;
  }
  EREL_FATAL("LSQ entry not found for seq ", seq);
}

LsqEntry& Lsq::find(core::InstSeq seq) {
  return const_cast<LsqEntry&>(static_cast<const Lsq*>(this)->find(seq));
}

void Lsq::set_address(core::InstSeq seq, std::uint64_t addr) {
  LsqEntry& e = find(seq);
  e.addr_known = true;
  e.addr = addr;
}

void Lsq::set_store_data(core::InstSeq seq, std::uint64_t data) {
  LsqEntry& e = find(seq);
  EREL_CHECK(e.is_store);
  e.data_ready = true;
  e.data = data;
}

LoadStatus Lsq::query_load(core::InstSeq seq, std::uint64_t* value) const {
  const LsqEntry& load = find(seq);
  EREL_CHECK(!load.is_store && load.addr_known);
  // Scan older stores from youngest to oldest.
  const LsqEntry* covering = nullptr;
  bool any_overlap = false;
  for (std::size_t i = size_; i-- > 0;) {
    const LsqEntry& e = nth(i);
    if (e.seq >= seq) continue;
    if (!e.is_store) continue;
    if (!e.addr_known) return LoadStatus::Wait;  // conservative rule
    if (!ranges_overlap(e.addr, e.size, load.addr, load.size)) continue;
    if (!any_overlap) {
      // Youngest overlapping older store decides.
      any_overlap = true;
      if (range_covers(e.addr, e.size, load.addr, load.size)) covering = &e;
    }
    // Keep scanning: an even older store with an unknown address would have
    // returned Wait above, so completing the loop is just overlap bookkeeping.
  }
  if (!any_overlap) return LoadStatus::Memory;
  if (covering == nullptr) return LoadStatus::Wait;  // partial overlap
  if (!covering->data_ready) return LoadStatus::Wait;
  if (value != nullptr) {
    const unsigned shift =
        static_cast<unsigned>(load.addr - covering->addr) * 8;
    std::uint64_t raw = covering->data >> shift;
    if (load.size < 8) raw &= (std::uint64_t{1} << (load.size * 8)) - 1;
    *value = raw;
  }
  return LoadStatus::Forward;
}

LsqEntry Lsq::pop_commit(core::InstSeq seq) {
  EREL_CHECK(size_ > 0 && nth(0).seq == seq, "commit order violated in LSQ");
  const LsqEntry entry = nth(0);
  head_ = (head_ + 1) & mask_;
  --size_;
  return entry;
}

void Lsq::squash_after(core::InstSeq boundary) {
  while (size_ > 0 && nth(size_ - 1).seq > boundary) --size_;
}

}  // namespace erel::pipeline
