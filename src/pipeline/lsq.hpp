// Load/Store Queue: 64 entries with store-to-load forwarding. Loads follow
// the paper's conservative disambiguation rule ("loads are executed when all
// previously store addresses are known"); a load whose bytes are partially
// covered by older stores waits until those stores commit and reads memory.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/types.hpp"

namespace erel::pipeline {

struct LsqEntry {
  core::InstSeq seq = core::kNoSeq;
  bool is_store = false;
  std::uint8_t size = 0;
  bool addr_known = false;
  std::uint64_t addr = 0;
  bool data_ready = false;  // stores: value staged
  std::uint64_t data = 0;
};

/// What a load may do right now.
enum class LoadStatus : std::uint8_t {
  Wait,     // an older store address is unknown, or a partial overlap exists
  Forward,  // a single older store fully covers the load; value available
  Memory,   // no older store overlaps: safe to access the D-cache
};

class Lsq {
 public:
  explicit Lsq(unsigned capacity);

  [[nodiscard]] bool full() const { return size_ >= capacity_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Allocates an entry at dispatch (program order).
  void push(core::InstSeq seq, bool is_store, unsigned size);

  /// Address (and, for stores, data) arrive at execute.
  void set_address(core::InstSeq seq, std::uint64_t addr);
  void set_store_data(core::InstSeq seq, std::uint64_t data);

  /// Disambiguation + forwarding decision for a load whose address is known.
  /// On Forward, `*value` receives the load-sized, zero-extended bytes.
  [[nodiscard]] LoadStatus query_load(core::InstSeq seq,
                                      std::uint64_t* value) const;

  /// Read-only entry access (the memory stage needs the resolved address).
  [[nodiscard]] const LsqEntry& get(core::InstSeq seq) const { return find(seq); }

  /// The oldest entry must belong to `seq`; removes and returns it (commit).
  LsqEntry pop_commit(core::InstSeq seq);

  /// Drops every entry younger than `boundary` (branch squash).
  void squash_after(core::InstSeq boundary);

  void clear() { size_ = 0; }

 private:
  [[nodiscard]] const LsqEntry& find(core::InstSeq seq) const;
  LsqEntry& find(core::InstSeq seq);

  /// i-th oldest live entry (0 == front).
  [[nodiscard]] const LsqEntry& nth(std::size_t i) const {
    return slots_[(head_ + i) & mask_];
  }
  [[nodiscard]] LsqEntry& nth(std::size_t i) {
    return slots_[(head_ + i) & mask_];
  }

  unsigned capacity_;
  // Program order, oldest first, in a pow2 ring (the queue holds at most
  // `capacity_` small trivially-copyable entries — a node container buys
  // nothing here).
  std::vector<LsqEntry> slots_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t mask_ = 0;
};

}  // namespace erel::pipeline
