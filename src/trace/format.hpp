// Binary trace container format (version 1).
//
// Traces hold the committed instruction stream of a detailed simulation —
// one delta-encoded record per committed instruction (sequence number, PC,
// raw encoding, and the dispatch/issue/complete/commit cycle stamps) — plus
// an optional embedded program image, which makes a trace file a
// self-contained workload: `workloads::assemble_workload("trace:<path>")`
// re-simulates it under any configuration without the original assembly.
//
// Layout (all multi-byte scalars are LEB128 varints unless noted):
//
//   bytes 'E' 'R' 'T' 'R'          magic
//   u32 (fixed, LE)                version
//   u8                             has_program
//   [program image]                entry, code_base, code words (fixed u32),
//                                  data segments, symbol table
//   u64 (fixed, LE)                record count (patched by finish())
//   records...                     delta-encoded, see TraceWriter
//
// Deltas use zigzag encoding where a field is not provably monotone; the
// strictly increasing per-instruction stage stamps (dispatch < issue <
// complete < commit) are stored as unsigned gaps.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

namespace erel::trace {

inline constexpr std::array<std::uint8_t, 4> kTraceMagic = {'E', 'R', 'T', 'R'};
inline constexpr std::uint32_t kFormatVersion = 1;

// --- encoding helpers -----------------------------------------------------

inline void put_uvarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Allocation-free variant for hot paths (trace capture encodes one record
/// per committed instruction). Returns the number of bytes written; the
/// caller guarantees >= 10 bytes of space per varint.
inline std::size_t put_uvarint(std::uint8_t* out, std::uint64_t v) {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline void put_svarint(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_uvarint(out, zigzag(v));
}

inline void put_fixed32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  std::uint8_t bytes[4];
  std::memcpy(bytes, &v, 4);  // little-endian host
  out.insert(out.end(), bytes, bytes + 4);
}

inline void put_fixed64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t bytes[8];
  std::memcpy(bytes, &v, 8);
  out.insert(out.end(), bytes, bytes + 8);
}

/// Bounds-checked sequential decoder over an in-memory buffer. Every getter
/// sets `ok = false` (and returns 0) on truncated input instead of reading
/// out of bounds; callers check `ok` once per logical unit.
struct ByteCursor {
  const std::uint8_t* p = nullptr;
  const std::uint8_t* end = nullptr;
  bool ok = true;

  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end - p);
  }

  std::uint8_t u8() {
    if (p >= end) {
      ok = false;
      return 0;
    }
    return *p++;
  }

  std::uint64_t uvarint() {
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (shift < 64) {
      if (p >= end) {
        ok = false;
        return 0;
      }
      const std::uint8_t byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
    ok = false;  // over-long varint
    return 0;
  }

  std::int64_t svarint() { return unzigzag(uvarint()); }

  std::uint32_t fixed32() {
    if (remaining() < 4) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  }

  std::uint64_t fixed64() {
    if (remaining() < 8) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  }

  /// Copies `n` raw bytes into `dst`; zero-fills on truncation.
  void raw(void* dst, std::size_t n) {
    if (remaining() < n) {
      ok = false;
      std::memset(dst, 0, n);
      return;
    }
    std::memcpy(dst, p, n);
    p += n;
  }
};

}  // namespace erel::trace
