// Sparse byte-addressable memory backing both the functional oracle and the
// timing simulator's committed state. Pages materialize on first touch;
// reads of untouched memory return zero (wrong-path accesses must never
// fault or allocate).
//
// Hot-path front end: a small direct-mapped page-pointer cache (a software
// TLB) sits in front of the page map, so the common read/write resolves with
// one tag compare + pointer arithmetic instead of a hash lookup. The TLB is
// purely an accelerator — it only ever caches pointers to materialized
// pages (node-based map storage keeps them stable), absent-page reads are
// never cached (the page may materialize later via a write), and clear()
// drops it wholesale — so observable behaviour is exactly that of the page
// map alone (tests/test_memory.cpp checks it against a reference model).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace erel::arch {

class SparseMemory {
 public:
  static constexpr std::uint64_t kPageBytes = 4096;

  /// Naturally-aligned scalar accessors. `size` in {1, 2, 4, 8}; loads
  /// zero-extend into the 64-bit result.
  [[nodiscard]] std::uint64_t read(std::uint64_t addr, unsigned size) const;
  void write(std::uint64_t addr, std::uint64_t value, unsigned size);

  [[nodiscard]] std::uint8_t read_u8(std::uint64_t addr) const {
    return static_cast<std::uint8_t>(read(addr, 1));
  }
  [[nodiscard]] std::uint32_t read_u32(std::uint64_t addr) const {
    return static_cast<std::uint32_t>(read(addr, 4));
  }
  [[nodiscard]] std::uint64_t read_u64(std::uint64_t addr) const {
    return read(addr, 8);
  }

  /// Bulk copy-in used by the program loader and checkpoint restore: touches
  /// each covered page once and memcpys page-sized chunks.
  void write_block(std::uint64_t addr, std::span<const std::uint8_t> bytes);

  /// Number of pages materialized so far (observability for tests).
  [[nodiscard]] std::size_t resident_pages() const { return pages_.size(); }

  // -- checkpoint support --------------------------------------------------
  // Pages materialize only on writes, so the resident set is exactly the
  // dirty set: enumerating it captures full memory state.

  /// Base addresses of all resident pages, sorted ascending.
  [[nodiscard]] std::vector<std::uint64_t> page_bases() const;

  /// Raw bytes of the resident page containing `addr` (nullptr if absent).
  [[nodiscard]] const std::uint8_t* page_data(std::uint64_t addr) const;

  /// Every resident page as (base address, raw bytes), sorted by base: one
  /// map sweep instead of a lookup per page (checkpoint capture's bulk
  /// path). Pointers are valid until the next clear().
  [[nodiscard]] std::vector<std::pair<std::uint64_t, const std::uint8_t*>>
  pages_snapshot() const;

  /// Drops every page (restore starts from a blank address space).
  void clear() {
    pages_.clear();
    flush_tlb();
  }

 private:
  using Page = std::array<std::uint8_t, kPageBytes>;

  /// Direct-mapped page-pointer cache. kNoPage tags empty slots (page index
  /// ~0 would need addr >= 2^64 - 4096, unreachable).
  struct TlbEntry {
    std::uint64_t page = kNoPage;
    Page* data = nullptr;
  };
  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};
  static constexpr std::size_t kTlbSlots = 64;  // power of two

  void flush_tlb() const {
    for (TlbEntry& e : tlb_) e = TlbEntry{};
  }

  /// Resolves `addr` to its materialized page via the TLB, filling the slot
  /// on a map hit; nullptr when the page is absent. Const because resolving
  /// is logically read-only (the TLB is a mutable accelerator).
  Page* lookup_page(std::uint64_t addr) const;

  [[nodiscard]] const Page* find_page(std::uint64_t addr) const;
  Page& touch_page(std::uint64_t addr);

  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  mutable std::array<TlbEntry, kTlbSlots> tlb_{};
};

}  // namespace erel::arch
