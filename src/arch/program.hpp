// A loadable program image: the assembler's output and the simulators' input.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace erel::arch {

/// Default load addresses. Code and data live far apart so kernels can use
/// 32-bit address constants built with lui/ori.
inline constexpr std::uint64_t kDefaultCodeBase = 0x10000;
inline constexpr std::uint64_t kDefaultDataBase = 0x100000;

struct DataSegment {
  std::uint64_t base = 0;
  std::vector<std::uint8_t> bytes;
};

struct Program {
  std::uint64_t entry = kDefaultCodeBase;
  std::uint64_t code_base = kDefaultCodeBase;
  std::vector<std::uint32_t> code;       // encoded instructions, 4 bytes each
  std::vector<DataSegment> data;         // initialized data
  std::map<std::string, std::uint64_t> symbols;  // label -> address

  [[nodiscard]] std::uint64_t code_end() const {
    return code_base + 4 * code.size();
  }
};

}  // namespace erel::arch
