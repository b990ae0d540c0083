// 18-bit gshare predictor with speculative global-history updates and
// per-branch history checkpoints (paper Table 2: "18-bit gshare, speculative
// updates, up to 20 pending branches").
#pragma once

#include <cstdint>
#include <vector>

namespace erel::branch {

struct GshareStats {
  std::uint64_t predictions = 0;
  std::uint64_t mispredictions = 0;

  [[nodiscard]] double accuracy() const {
    return predictions == 0
               ? 1.0
               : 1.0 - static_cast<double>(mispredictions) / predictions;
  }
};

class Gshare {
 public:
  explicit Gshare(unsigned history_bits = 18);

  /// Predicts one conditional branch and speculatively shifts the prediction
  /// into the global history. Returns the predicted direction; `*checkpoint`
  /// receives the pre-prediction history for misprediction repair.
  bool predict(std::uint64_t pc, std::uint32_t* checkpoint);

  /// Resolves a branch: trains the counter. On a misprediction the caller
  /// must also call `repair` with the checkpoint taken at predict time.
  void resolve(std::uint64_t pc, std::uint32_t checkpoint, bool taken,
               bool mispredicted);

  /// Restores history after squashing: history = checkpoint plus the actual
  /// outcome of the mispredicted branch.
  void repair(std::uint32_t checkpoint, bool actual_taken);

  /// Restores history verbatim (indirect-jump misprediction: the jump itself
  /// contributes no history bit).
  void restore_history(std::uint32_t history) { ghr_ = history & mask_; }

  [[nodiscard]] const GshareStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t history() const { return ghr_; }
  [[nodiscard]] unsigned history_bits() const { return history_bits_; }

  /// The 2-bit counter a branch at `pc` under `history` reads (0..3).
  [[nodiscard]] std::uint8_t counter_at(std::uint64_t pc,
                                        std::uint32_t history) const;

 private:
  [[nodiscard]] std::size_t index(std::uint64_t pc, std::uint32_t history) const;

  unsigned history_bits_;
  std::uint32_t mask_;
  std::uint32_t ghr_ = 0;
  // 2-bit saturating counters, init 1 (weakly not taken), four per byte:
  // counter i is bits [2*(i%4), 2*(i%4)+2) of byte i/4.
  std::vector<std::uint8_t> counters_;
  GshareStats stats_;
};

}  // namespace erel::branch
