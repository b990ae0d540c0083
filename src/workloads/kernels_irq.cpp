// Interrupt-driven kernels (timer / echo): the device-model workloads.
//
// Unlike the Table 3 analogues these are built around the memory-mapped
// device page (src/dev/): a programmable interval timer and a console with
// a synthetic RX source. Interrupt delivery squashes the speculative path
// at the head of the ROS, so these kernels stress exactly the rollback
// machinery the release policies differ on.
//
// Handler register convention: asynchronous delivery can land between any
// two instructions, and there is no banked register file, so the handler
// may only touch registers the main loop never reads after the device is
// enabled. These kernels reserve r25..r30 for the handler (r30 = device
// base, kept live by main as well) and keep all main-loop state in
// r3..r12.
#include <string>

#include "common/log.hpp"
#include "workloads/workloads.hpp"

namespace erel::workloads {

// ---------------------------------------------------------------------------
// timer: a fixed-length LCG checksum loop with a PIT firing every {P}
// retired instructions. The handler counts ticks and folds the interrupt
// cause into a sum; the main loop's result is deterministic regardless of
// where the ticks land, which is exactly what the bit-identity tests pin.
// ---------------------------------------------------------------------------
std::string kernel_timer(unsigned iters, unsigned period) {
  EREL_CHECK(iters >= 1 && period >= 32,
             "timer kernel: iters >= 1 and period >= 32 required (shorter "
             "periods re-enter the handler before it returns)");
  std::string text = subst(R"(# timer analogue: LCG compute loop under a periodic interrupt
main:
  li   r30, 0xFFFF0000    # device base (kept live for the handler)
  li   r25, 0             # handler: tick count
  li   r26, 0             # handler: cause accumulator
  la   r3, timer_isr
  sd   r3, 0x18(r30)      # INTC_VECTOR
  li   r3, 1
  sd   r3, 0x10(r30)      # INTC_MASK = PIT line
  li   r3, {P}
  sd   r3, 0x40(r30)      # PIT_RELOAD: fire every {P} retired insts
  li   r3, 1
  sd   r3, 0x08(r30)      # INTC_ENABLE: MIE on (armed last)

  li   r4, 0              # i
  li   r5, 987654321      # LCG state
  li   r6, {M}            # iterations
  li   r7, 1103515245
  li   r8, 0              # checksum
loop:
  mul  r5, r5, r7
  addi r5, r5, 6789
  slli r5, r5, 32
  srli r5, r5, 32
  xor  r8, r8, r5
  addi r4, r4, 1
  blt  r4, r6, loop

  sd   r0, 0x08(r30)      # MIE off: results below are read atomically
  ld   r9, 0x50(r30)      # PIT_TICKS (device-side fire count)
  la   r10, result
  slli r11, r8, 1
  ori  r11, r11, 1        # result0 = checksum<<1|1 (provably nonzero)
  sd   r11, 0(r10)
  sd   r25, 8(r10)        # result8 = handler tick count
  sd   r9, 16(r10)        # result16 = device tick count
  sd   r26, 24(r10)       # result24 = cause accumulator
  halt

timer_isr:
  addi r25, r25, 1
  ld   r27, 0x28(r30)     # INTC_CAUSE
  add  r26, r26, r27
  addi r26, r26, 1
  iret

.data
.align 8
result: .space 32
)",
                           "M", iters);
  return subst(std::move(text), "P", period);
}

// ---------------------------------------------------------------------------
// echo: a console echo server. The RX source deposits one byte every {Q}
// retired instructions; each byte raises the RX line, the handler pops it,
// transmits byte+1, and returns. The main loop spins on an LCG hash until
// {K} bytes have been echoed, so the dynamic length is set by the device
// clock rather than the loop bound.
// ---------------------------------------------------------------------------
std::string kernel_echo(unsigned echoes, unsigned period) {
  EREL_CHECK(echoes >= 1 && period >= 32,
             "echo kernel: echoes >= 1 and period >= 32 required (shorter "
             "periods re-enter the handler before it returns)");
  std::string text = subst(R"(# echo analogue: interrupt-driven console echo
main:
  li   r30, 0xFFFF0000    # device base (kept live for the handler)
  li   r25, 0             # handler: echoed-byte count
  la   r3, rx_isr
  sd   r3, 0x18(r30)      # INTC_VECTOR
  li   r3, 2
  sd   r3, 0x10(r30)      # INTC_MASK = RX line
  li   r3, {Q}
  sd   r3, 0x98(r30)      # CON_RX_PERIOD: one byte every {Q} insts
  li   r3, 1
  sd   r3, 0x08(r30)      # INTC_ENABLE: MIE on (armed last)

  li   r4, 424242         # spin-loop LCG state
  li   r5, 1103515245
  li   r6, {K}            # target echo count
spin:
  mul  r4, r4, r5
  addi r4, r4, 7919
  slli r4, r4, 32
  srli r4, r4, 32
  blt  r25, r6, spin

  sd   r0, 0x08(r30)      # MIE off: results below are read atomically
  ld   r7, 0x90(r30)      # CON_TX_SUM
  ld   r8, 0x88(r30)      # CON_TX_COUNT
  la   r9, result
  slli r10, r7, 1
  ori  r10, r10, 1        # result0 = tx checksum<<1|1 (provably nonzero)
  sd   r10, 0(r9)
  sd   r8, 8(r9)          # result8 = transmitted-byte count
  sd   r25, 16(r9)        # result16 = handler echo count
  halt

rx_isr:
  ld   r26, 0xA0(r30)     # CON_RX_HEAD (~0 when empty)
  addi r27, r26, 1
  beqz r27, rx_done       # spurious: FIFO drained already
  sd   r26, 0xA8(r30)     # CON_RX_POP (consume the byte)
  addi r28, r26, 1
  sd   r28, 0x80(r30)     # CON_TX: echo byte+1
  addi r25, r25, 1
rx_done:
  iret

.data
.align 8
result: .space 32
)",
                           "K", echoes);
  return subst(std::move(text), "Q", period);
}

}  // namespace erel::workloads
