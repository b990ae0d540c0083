#include "arch/memory.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"

namespace erel::arch {

const SparseMemory::Page* SparseMemory::find_page(std::uint64_t addr) const {
  const auto it = pages_.find(addr / kPageBytes);
  return it == pages_.end() ? nullptr : it->second.get();
}

SparseMemory::Page* SparseMemory::lookup_page(std::uint64_t addr) const {
  const std::uint64_t page = addr / kPageBytes;
  TlbEntry& slot = tlb_[page & (kTlbSlots - 1)];
  if (slot.page == page) return slot.data;
  const auto it = pages_.find(page);
  if (it == pages_.end()) return nullptr;  // absence is never cached
  Page* data = it->second.get();
  slot = {page, data};
  return data;
}

SparseMemory::Page& SparseMemory::touch_page(std::uint64_t addr) {
  const std::uint64_t page = addr / kPageBytes;
  auto& slot = pages_[page];
  if (!slot) {
    slot = std::make_unique<Page>();
    slot->fill(0);
  }
  tlb_[page & (kTlbSlots - 1)] = {page, slot.get()};
  return *slot;
}

std::uint64_t SparseMemory::read(std::uint64_t addr, unsigned size) const {
  EREL_CHECK(size == 1 || size == 2 || size == 4 || size == 8);
  EREL_CHECK(addr % size == 0, "unaligned read of ", size, " at ", addr);
  const Page* page = lookup_page(addr);
  if (page == nullptr) return 0;
  std::uint64_t value = 0;
  std::memcpy(&value, page->data() + addr % kPageBytes, size);
  return value;  // little-endian host ensures zero-extension semantics
}

void SparseMemory::write(std::uint64_t addr, std::uint64_t value,
                         unsigned size) {
  EREL_CHECK(size == 1 || size == 2 || size == 4 || size == 8);
  EREL_CHECK(addr % size == 0, "unaligned write of ", size, " at ", addr);
  Page* page = lookup_page(addr);
  if (page == nullptr) page = &touch_page(addr);
  std::memcpy(page->data() + addr % kPageBytes, &value, size);
}

std::vector<std::uint64_t> SparseMemory::page_bases() const {
  std::vector<std::uint64_t> bases;
  bases.reserve(pages_.size());
  for (const auto& [index, page] : pages_) bases.push_back(index * kPageBytes);
  std::sort(bases.begin(), bases.end());
  return bases;
}

const std::uint8_t* SparseMemory::page_data(std::uint64_t addr) const {
  const Page* page = find_page(addr);
  return page == nullptr ? nullptr : page->data();
}

std::vector<std::pair<std::uint64_t, const std::uint8_t*>>
SparseMemory::pages_snapshot() const {
  std::vector<std::pair<std::uint64_t, const std::uint8_t*>> snapshot;
  snapshot.reserve(pages_.size());
  for (const auto& [index, page] : pages_)
    snapshot.emplace_back(index * kPageBytes, page->data());
  std::sort(snapshot.begin(), snapshot.end());
  return snapshot;
}

void SparseMemory::write_block(std::uint64_t addr,
                               std::span<const std::uint8_t> bytes) {
  for (std::size_t i = 0; i < bytes.size();) {
    Page& page = touch_page(addr + i);
    const std::uint64_t off = (addr + i) % kPageBytes;
    const std::size_t chunk =
        std::min<std::size_t>(bytes.size() - i, kPageBytes - off);
    std::memcpy(page.data() + off, bytes.data() + i, chunk);
    i += chunk;
  }
}

}  // namespace erel::arch
