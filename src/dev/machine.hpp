// Memory-mapped device model: a programmable interval timer (PIT/RTC
// style), a console (TX sink + paced RX source), and a small interrupt
// controller — the machine's source of asynchronous control flow.
//
// Determinism contract (docs/interrupts.md): device time is the count of
// architecturally retired instructions, never cycles. Every engine — the
// byte-accurate functional path, the decode-once fast path, the pipeline's
// commit stage, sampled windows resumed from checkpoints — calls sync() at
// the same retirement boundaries and performs MMIO accesses with the same
// `now`, so interrupts are latched and delivered at identical instruction
// boundaries everywhere and commit streams stay bit-identical.
//
// `now` convention: every method taking `now` receives the number of
// instructions retired *before* the current one (the retirement boundary).
// sync(now) latches all timer/RX events with deadline <= now; an MMIO
// access performed by instruction N+1 therefore passes now = N and never
// observes events the delivery check at boundary N could not.
//
// MMIO reads are side-effect-free by design: consuming an RX byte is an
// explicit store to kConRxPop, never a read side effect. A flushed
// at-head load can thus be re-executed (or discarded) without the device
// double-stepping — the one hazard that would break replay determinism.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

namespace erel::dev {

class Machine {
 public:
  /// MMIO window (4 KB at the top of the 32-bit range; workloads reach it
  /// with a single `li`). Device registers are 64-bit, 8-byte aligned.
  static constexpr std::uint64_t kMmioBase = 0xFFFF0000ull;
  static constexpr std::uint64_t kMmioBytes = 0x1000ull;

  /// Pipeline access latency for device loads (uncached, fixed).
  static constexpr unsigned kMmioLatency = 6;

  // Register offsets from kMmioBase.
  static constexpr std::uint64_t kIntcStatus = 0x00;  // R: pending lines
  static constexpr std::uint64_t kIntcEnable = 0x08;  // RW: bit0 = MIE
  static constexpr std::uint64_t kIntcMask = 0x10;    // RW: per-line enable
  static constexpr std::uint64_t kIntcVector = 0x18;  // RW: handler pc, 0=off
  static constexpr std::uint64_t kIntcEpc = 0x20;     // RW: interrupted pc
  static constexpr std::uint64_t kIntcCause = 0x28;   // R: last line index
  static constexpr std::uint64_t kIntcAck = 0x30;     // W: clear pending bits
  static constexpr std::uint64_t kPitReload = 0x40;   // RW: period, 0 = off
  static constexpr std::uint64_t kPitCount = 0x48;    // R: next fire deadline
  static constexpr std::uint64_t kPitTicks = 0x50;    // R: total fires
  static constexpr std::uint64_t kConTx = 0x80;       // W: emit byte
  static constexpr std::uint64_t kConTxCount = 0x88;  // R: bytes emitted
  static constexpr std::uint64_t kConTxSum = 0x90;    // R: rolling checksum
  static constexpr std::uint64_t kConRxPeriod = 0x98; // RW: arrival pace, 0=off
  static constexpr std::uint64_t kConRxHead = 0xA0;   // R: next byte, ~0=empty
  static constexpr std::uint64_t kConRxPop = 0xA8;    // W: consume head byte
  static constexpr std::uint64_t kConRxCount = 0xB0;  // R: bytes queued
  static constexpr std::uint64_t kConRxDropped = 0xB8;  // R: overrun count

  // Interrupt lines (bit positions in STATUS/MASK).
  static constexpr std::uint64_t kIrqPit = 1ull << 0;
  static constexpr std::uint64_t kIrqRx = 1ull << 1;

  static constexpr std::size_t kRxFifoCapacity = 64;

  [[nodiscard]] static bool is_mmio(std::uint64_t addr) {
    return addr - kMmioBase < kMmioBytes;
  }

  /// True until the program touches the device: the engines' per-boundary
  /// delivery checks are gated on this, so device-free workloads pay one
  /// branch per retirement boundary and nothing else.
  [[nodiscard]] bool quiet() const { return !armed_; }

  /// Latches every timer fire / RX arrival with deadline <= now into the
  /// pending lines. Idempotent; `now` must be non-decreasing across calls.
  void sync(std::uint64_t now);

  /// True when a latched, unmasked line can be taken (vector installed and
  /// master enable set). Callers sync() first.
  [[nodiscard]] bool deliverable() const {
    return vector_ != 0 && mie_ && (pending_ & mask_) != 0;
  }

  /// Takes the highest-priority (lowest-numbered) deliverable line: records
  /// EPC/CAUSE, auto-acks the line, saves and clears the master enable.
  /// Returns the handler vector. Single-level: nesting resumes only after
  /// IRET (or an explicit ENABLE write from the handler).
  std::uint64_t deliver(std::uint64_t interrupted_pc);

  /// IRET semantics: restores the pre-interrupt master enable and returns
  /// the EPC to resume at.
  std::uint64_t iret();

  [[nodiscard]] std::uint64_t epc() const { return epc_; }
  [[nodiscard]] std::uint64_t vector() const { return vector_; }

  /// Absolute boundary of the next timer/RX deadline, or ~0 when none is
  /// armed. The fast path caps its uninterrupted dispatch window here so it
  /// re-checks delivery at exactly the right boundary.
  [[nodiscard]] std::uint64_t next_event() const;

  /// MMIO load by the instruction retiring at boundary `now`+1. Reads are
  /// pure: no FIFO pop, no ack, no latch beyond sync(now). Sizes 1/2/4/8;
  /// `addr` must be size-aligned (callers fault misaligned accesses first).
  std::uint64_t read(std::uint64_t addr, unsigned size, std::uint64_t now);

  /// MMIO store (commit-time in the pipeline). Registers are 64-bit: only
  /// 8-byte aligned `sd` stores are architecturally valid.
  void write(std::uint64_t addr, std::uint64_t value, unsigned size,
             std::uint64_t now);

  /// Checkpoint capture: the full device state as words (FIFO bytes
  /// widened). load() accepts save() output or an empty vector (reset
  /// state).
  [[nodiscard]] std::vector<std::uint64_t> save() const;
  void load(const std::vector<std::uint64_t>& words);

  bool operator==(const Machine&) const = default;

 private:
  [[nodiscard]] std::uint64_t reg_value(std::uint64_t offset) const;

  bool armed_ = false;
  // Interrupt controller.
  bool mie_ = false;       // master interrupt enable
  bool prev_mie_ = false;  // MIE at delivery, restored by IRET
  std::uint64_t mask_ = 0;
  std::uint64_t vector_ = 0;
  std::uint64_t epc_ = 0;
  std::uint64_t cause_ = 0;
  std::uint64_t pending_ = 0;
  // Programmable interval timer.
  std::uint64_t pit_period_ = 0;
  std::uint64_t pit_next_ = 0;  // absolute deadline, valid when period > 0
  std::uint64_t pit_ticks_ = 0;
  // Console.
  std::uint64_t tx_count_ = 0;
  std::uint64_t tx_sum_ = 0;
  std::uint64_t rx_period_ = 0;
  std::uint64_t rx_next_ = 0;  // absolute deadline, valid when period > 0
  std::uint64_t rx_seq_ = 0;
  std::uint64_t rx_dropped_ = 0;
  std::deque<std::uint8_t> rx_fifo_;
};

}  // namespace erel::dev
