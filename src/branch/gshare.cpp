#include "branch/gshare.hpp"

#include "common/log.hpp"

namespace erel::branch {

namespace {

/// Bit offset of counter `i` within its byte.
unsigned shift_of(std::size_t i) { return 2 * static_cast<unsigned>(i & 3); }

}  // namespace

Gshare::Gshare(unsigned history_bits)
    : history_bits_(history_bits),
      mask_((1u << history_bits) - 1u),
      counters_(((std::size_t{1} << history_bits) + 3) / 4, 0x55) {
  EREL_CHECK(history_bits >= 1 && history_bits <= 24);
}

std::size_t Gshare::index(std::uint64_t pc, std::uint32_t history) const {
  return (static_cast<std::uint32_t>(pc >> 2) ^ history) & mask_;
}

bool Gshare::predict(std::uint64_t pc, std::uint32_t* checkpoint) {
  EREL_CHECK(checkpoint != nullptr);
  *checkpoint = ghr_;
  const bool taken = counter_at(pc, ghr_) >= 2;
  ghr_ = ((ghr_ << 1) | (taken ? 1u : 0u)) & mask_;
  ++stats_.predictions;
  return taken;
}

void Gshare::resolve(std::uint64_t pc, std::uint32_t checkpoint, bool taken,
                     bool mispredicted) {
  // The counter is indexed with the history the prediction saw.
  const std::size_t i = index(pc, checkpoint);
  std::uint8_t& byte = counters_[i / 4];
  const unsigned shift = shift_of(i);
  const unsigned counter = (byte >> shift) & 3u;
  if (taken ? counter < 3 : counter > 0) {
    const unsigned next = taken ? counter + 1 : counter - 1;
    byte = static_cast<std::uint8_t>((byte & ~(3u << shift)) | (next << shift));
  }
  if (mispredicted) ++stats_.mispredictions;
}

void Gshare::repair(std::uint32_t checkpoint, bool actual_taken) {
  ghr_ = ((checkpoint << 1) | (actual_taken ? 1u : 0u)) & mask_;
}

std::uint8_t Gshare::counter_at(std::uint64_t pc, std::uint32_t history) const {
  const std::size_t i = index(pc, history);
  return static_cast<std::uint8_t>((counters_[i / 4] >> shift_of(i)) & 3u);
}

}  // namespace erel::branch
