// Integer kernels (compress / gcc / go / li / perl analogues).
//
// Register conventions inside kernels: r1 = ra (link), r2 = sp (stack, grows
// down from 0x200000), r3..r30 scratch. All data lives in the .data section
// reached via `la`.
#include <string>

#include "workloads/workloads.hpp"

namespace erel::workloads {

// ---------------------------------------------------------------------------
// compress: LZW over a run-biased pseudo-random byte stream. Hash probing,
// byte loads, unpredictable branches — the classic compress profile.
// ---------------------------------------------------------------------------
std::string kernel_compress(unsigned bytes) {
  return subst(R"(# compress analogue: LZW with a 4096-entry chained hash dictionary
main:
  la   r3, inbuf
  li   r5, 12345          # LCG state
  li   r6, 0              # previous byte (run bias)
  li   r4, 0
  li   r7, {N}            # input length
  li   r20, 1103515245    # LCG multiplier
gen_loop:
  mul  r5, r5, r20
  addi r5, r5, 6789
  slli r5, r5, 32         # keep 32 bits of state
  srli r5, r5, 32
  srli r8, r5, 16
  andi r8, r8, 63         # candidate byte, 64-symbol alphabet
  srli r9, r5, 22
  andi r9, r9, 7
  slti r9, r9, 5          # 5/8 probability: repeat previous byte
  beqz r9, gen_store
  mv   r8, r6
gen_store:
  add  r10, r3, r4
  sb   r8, 0(r10)
  mv   r6, r8
  addi r4, r4, 1
  blt  r4, r7, gen_loop

  # ---- LZW encode ----
  la   r13, htab_keys
  la   r14, htab_vals
  li   r10, 0             # emitted-code checksum
  li   r11, 0             # emitted-code count
  li   r12, 64            # next dictionary code
  li   r21, 0x9E3779B1    # Fibonacci hash multiplier
  li   r22, 3072          # dictionary cap: 75% load keeps probes short
  lbu  r5, 0(r3)          # w = buf[0]
  li   r4, 1
lzw_loop:
  add  r15, r3, r4
  lbu  r6, 0(r15)         # c = buf[i]
  slli r8, r5, 8
  or   r8, r8, r6
  addi r8, r8, 1          # key = (w<<8|c)+1, 0 means empty slot
  mul  r9, r8, r21
  srli r9, r9, 16
  andi r9, r9, 4095
probe:
  slli r15, r9, 2
  add  r15, r13, r15
  lw   r17, 0(r15)
  beqz r17, miss
  beq  r17, r8, hit
  addi r9, r9, 1
  andi r9, r9, 4095
  b    probe
hit:
  slli r15, r9, 2
  add  r15, r14, r15
  lw   r5, 0(r15)         # w = dict code, keep extending
  b    lzw_next
miss:
  slli r17, r10, 5        # emit w: sum = sum*31 + w
  sub  r10, r17, r10
  add  r10, r10, r5
  addi r11, r11, 1
  bge  r12, r22, noinsert # dictionary full
  slli r15, r9, 2
  add  r17, r13, r15
  sw   r8, 0(r17)
  add  r17, r14, r15
  sw   r12, 0(r17)
  addi r12, r12, 1
noinsert:
  mv   r5, r6             # restart from c
lzw_next:
  addi r4, r4, 1
  blt  r4, r7, lzw_loop
  slli r17, r10, 5        # final emit of w
  sub  r10, r17, r10
  add  r10, r10, r5
  addi r11, r11, 1
  la   r15, result
  sd   r10, 0(r15)
  sd   r11, 8(r15)
  sd   r12, 16(r15)
  halt

.data
inbuf:     .space {N}
.align 8
htab_keys: .space 16384
htab_vals: .space 16384
result:    .space 32
)",
               "N", bytes);
}

// ---------------------------------------------------------------------------
// gcc: a compiler-ish pass — a synthetic token stream dispatched through a
// jump table of handlers (indirect jumps), with an operand stack and a
// symbol hash. Branchy, pointer-heavy, irregular.
// ---------------------------------------------------------------------------
std::string kernel_gcc(unsigned tokens) {
  return subst(R"(# gcc analogue: token dispatch through a jump table + symbol hashing
main:
  # Build the jump table (8 handlers, 8-byte slots).
  la   r3, jumptab
  la   r4, op_push
  sd   r4, 0(r3)
  la   r4, op_add
  sd   r4, 8(r3)
  la   r4, op_sub
  sd   r4, 16(r3)
  la   r4, op_dup
  sd   r4, 24(r3)
  la   r4, op_hash
  sd   r4, 32(r3)
  la   r4, op_load
  sd   r4, 40(r3)
  la   r4, op_store
  sd   r4, 48(r3)
  la   r4, op_nopop
  sd   r4, 56(r3)

  la   r5, stackbuf       # operand stack base
  li   r6, 0              # stack depth
  la   r7, symtab         # 256-entry symbol table
  li   r8, 99991          # token LCG state
  li   r9, 0              # token counter
  li   r10, {N}           # total tokens
  li   r11, 0             # checksum
  li   r20, 1103515245
dispatch:
  mul  r8, r8, r20
  addi r8, r8, 6789
  slli r8, r8, 32
  srli r8, r8, 32
  srli r12, r8, 13
  andi r12, r12, 7        # opcode 0..7
  slli r13, r12, 3
  la   r3, jumptab
  add  r13, r3, r13
  ld   r13, 0(r13)
  jalr r1, r13, 0         # indirect dispatch (BTB workout)
  addi r9, r9, 1
  blt  r9, r10, dispatch
  b    finish

op_push:                  # push a token-derived value
  srli r14, r8, 5
  andi r14, r14, 1023
  slli r15, r6, 3
  add  r15, r5, r15
  sd   r14, 0(r15)
  addi r6, r6, 1
  andi r6, r6, 63         # wrap depth (bounded stack)
  ret
op_add:
  beqz r6, under1
  addi r6, r6, -1
  slli r15, r6, 3
  add  r15, r5, r15
  ld   r14, 0(r15)
  add  r11, r11, r14
under1:
  ret
op_sub:
  beqz r6, under2
  addi r6, r6, -1
  slli r15, r6, 3
  add  r15, r5, r15
  ld   r14, 0(r15)
  sub  r11, r11, r14
under2:
  ret
op_dup:
  beqz r6, under3
  addi r15, r6, -1
  slli r15, r15, 3
  add  r15, r5, r15
  ld   r14, 0(r15)
  slli r16, r6, 3
  add  r16, r5, r16
  sd   r14, 0(r16)
  addi r6, r6, 1
  andi r6, r6, 63
under3:
  ret
op_hash:                  # intern a symbol: open-addressed byte table
  srli r14, r8, 7
  andi r14, r14, 255
  li   r17, 16            # probe cap so a full table cannot spin
hash_probe:
  add  r15, r7, r14
  lbu  r16, 0(r15)
  beqz r16, hash_insert
  addi r14, r14, 1
  andi r14, r14, 255
  addi r17, r17, -1
  bnez r17, hash_probe
  ret
hash_insert:
  li   r16, 1
  sb   r16, 0(r15)
  addi r11, r11, 1
  ret
op_load:
  srli r14, r8, 9
  andi r14, r14, 255
  add  r15, r7, r14
  lbu  r16, 0(r15)
  add  r11, r11, r16
  ret
op_store:
  srli r14, r8, 11
  andi r14, r14, 255
  add  r15, r7, r14
  andi r16, r11, 1
  sb   r16, 0(r15)
  ret
op_nopop:
  xori r11, r11, 0x55
  ret

finish:
  la   r15, result
  sd   r11, 0(r15)
  sd   r6, 8(r15)
  halt

.data
jumptab:  .space 64
stackbuf: .space 512
symtab:   .space 256
result:   .space 16
)",
               "N", tokens);
}

// ---------------------------------------------------------------------------
// go: board-scanning sweeps over a 19x19 byte board with data-dependent
// neighbour comparisons (liberty counting style) and board mutation.
// ---------------------------------------------------------------------------
std::string kernel_go(unsigned sweeps) {
  return subst(R"(# go analogue: influence sweeps over a 19x19 board
main:
  # Fill the board with pseudo-random stones: 0 empty, 1 black, 2 white.
  la   r3, board
  li   r4, 0
  li   r5, 361            # 19*19
  li   r6, 777
  li   r20, 1103515245
fill:
  mul  r6, r6, r20
  addi r6, r6, 999
  slli r6, r6, 32
  srli r6, r6, 32
  srli r7, r6, 17
  andi r7, r7, 3
  slti r8, r7, 3          # value 3 maps to 0 (bias toward empty points)
  bnez r8, fill_put
  li   r7, 0
fill_put:
  add  r8, r3, r4
  sb   r7, 0(r8)
  addi r4, r4, 1
  blt  r4, r5, fill

  li   r9, 0              # sweep counter
  li   r10, {SWEEPS}
  li   r11, 0             # global influence checksum
sweep:
  li   r4, 20             # skip top row: start at (1,1)
inner:
  # cell index r4; neighbours at +-1, +-19
  add  r8, r3, r4
  lbu  r12, 0(r8)
  beqz r12, next_cell     # empty: nothing to do
  li   r13, 0             # liberty count
  lbu  r14, -1(r8)
  bnez r14, n1
  addi r13, r13, 1
n1:
  lbu  r14, 1(r8)
  bnez r14, n2
  addi r13, r13, 1
n2:
  lbu  r14, -19(r8)
  bnez r14, n3
  addi r13, r13, 1
n3:
  lbu  r14, 19(r8)
  bnez r14, n4
  addi r13, r13, 1
n4:
  # stones with no liberties flip colour (toy capture rule)
  bnez r13, alive
  li   r14, 3
  sub  r14, r14, r12      # 1<->2
  add  r8, r3, r4
  sb   r14, 0(r8)
  addi r11, r11, 7
  b    next_cell
alive:
  slli r14, r12, 1
  add  r14, r14, r13
  add  r11, r11, r14
next_cell:
  addi r4, r4, 1
  li   r14, 340           # last interior cell (17*19+18 < 341)
  blt  r4, r14, inner
  addi r9, r9, 1
  blt  r9, r10, sweep

  la   r15, result
  sd   r11, 0(r15)
  halt

.data
board:  .space 368
result: .space 16
)",
               "SWEEPS", sweeps);
}

// ---------------------------------------------------------------------------
// li: N-queens by recursive backtracking — the paper's lisp benchmark ran
// "7 queens". Deep call trees, stack traffic, short data-dependent branches.
// The solution count lands in result (92 for the default 8 queens).
// ---------------------------------------------------------------------------
std::string kernel_li(unsigned queens) {
  return subst(R"(# li analogue: {Q}-queens recursive backtracking
main:
  li   r2, 0x200000       # stack pointer
  li   r3, 0              # solution count
  la   r4, cols           # attack arrays
  la   r5, diag1
  la   r6, diag2
  li   r7, {Q}            # board size
  li   r8, 0              # current row
  call place
  la   r15, result
  sd   r3, 0(r15)
  halt

# place(row=r8): tries every column; r3 accumulates solutions.
place:
  beq  r8, r7, solution
  addi r2, r2, -16
  sd   r1, 0(r2)
  sd   r9, 8(r2)          # save column iterator
  li   r9, 0              # column
try_col:
  add  r10, r4, r9
  lbu  r11, 0(r10)
  bnez r11, skip          # column attacked
  add  r12, r8, r9        # diag1 index
  add  r13, r5, r12
  lbu  r11, 0(r13)
  bnez r11, skip
  sub  r14, r8, r9        # diag2 index (+Q to stay positive)
  add  r14, r14, r7
  add  r15, r6, r14
  lbu  r11, 0(r15)
  bnez r11, skip
  # mark
  li   r11, 1
  sb   r11, 0(r10)
  sb   r11, 0(r13)
  sb   r11, 0(r15)
  addi r8, r8, 1
  call place
  addi r8, r8, -1
  # unmark (recompute addresses: callee clobbered temps)
  add  r10, r4, r9
  sb   r0, 0(r10)
  add  r12, r8, r9
  add  r13, r5, r12
  sb   r0, 0(r13)
  sub  r14, r8, r9
  add  r14, r14, r7
  add  r15, r6, r14
  sb   r0, 0(r15)
skip:
  addi r9, r9, 1
  blt  r9, r7, try_col
  ld   r1, 0(r2)
  ld   r9, 8(r2)
  addi r2, r2, 16
  ret
solution:
  addi r3, r3, 1
  ret

.data
cols:   .space 32
diag1:  .space 64
diag2:  .space 64
result: .space 16
)",
               "Q", queens);
}

// ---------------------------------------------------------------------------
// perl: string scoring — walk a generated dictionary, score each word with a
// letter-value table (scrabble style), and count prefix-hash hits.
// ---------------------------------------------------------------------------
std::string kernel_perl(unsigned passes) {
  return subst(R"(# perl analogue: word scoring + prefix hashing over a generated dictionary
main:
  # Letter values 1..10 for a 26-letter alphabet.
  la   r3, lettertab
  li   r4, 0
lv_loop:
  mul  r5, r4, r4
  addi r5, r5, 3
  li   r6, 10
  rem  r5, r5, r6
  addi r5, r5, 1
  add  r6, r3, r4
  sb   r5, 0(r6)
  addi r4, r4, 1
  slti r5, r4, 26
  bnez r5, lv_loop

  # Generate 512 words of 3..10 letters, NUL-terminated, 12-byte slots.
  la   r7, words
  li   r8, 4242           # LCG state
  li   r9, 0              # word index
  li   r20, 1103515245
gen_words:
  mul  r8, r8, r20
  addi r8, r8, 321
  slli r8, r8, 32
  srli r8, r8, 32
  srli r10, r8, 9
  andi r10, r10, 7
  addi r10, r10, 3        # length 3..10
  slli r11, r9, 3
  slli r12, r9, 2
  add  r11, r11, r12      # word base = words + 12*i
  add  r11, r7, r11
  li   r12, 0             # letter position
gen_letters:
  mul  r8, r8, r20
  addi r8, r8, 321
  slli r8, r8, 32
  srli r8, r8, 32
  srli r13, r8, 11
  li   r14, 26
  rem  r13, r13, r14
  add  r14, r11, r12
  sb   r13, 0(r14)
  addi r12, r12, 1
  blt  r12, r10, gen_letters
  add  r14, r11, r12
  li   r13, 255           # terminator (letters are 0..25)
  sb   r13, 0(r14)
  addi r9, r9, 1
  slti r10, r9, 512
  bnez r10, gen_words

  # Score every word, PASSES times; hash 3-letter prefixes into a set.
  li   r15, 0             # pass counter
  li   r16, {PASSES}
  li   r17, 0             # total score
  li   r18, 0             # prefix-set insert count
  la   r19, prefixset
score_pass:
  li   r9, 0
score_word:
  slli r11, r9, 3
  slli r12, r9, 2
  add  r11, r11, r12
  add  r11, r7, r11       # word base
  li   r12, 0             # position
  li   r13, 0             # word score
  li   r21, 0             # prefix hash
score_letter:
  add  r14, r11, r12
  lbu  r10, 0(r14)
  li   r14, 255
  beq  r10, r14, word_done
  add  r14, r3, r10
  lbu  r14, 0(r14)        # letter value
  add  r13, r13, r14
  slti r14, r12, 3        # first 3 letters feed the prefix hash
  beqz r14, no_prefix
  slli r21, r21, 5
  add  r21, r21, r10
no_prefix:
  addi r12, r12, 1
  b    score_letter
word_done:
  # double-letter-score if length is even
  andi r14, r12, 1
  bnez r14, odd_len
  slli r13, r13, 1
odd_len:
  add  r17, r17, r13
  # prefix set membership (1024 buckets)
  andi r21, r21, 1023
  add  r14, r19, r21
  lbu  r10, 0(r14)
  bnez r10, seen
  li   r10, 1
  sb   r10, 0(r14)
  addi r18, r18, 1
seen:
  addi r9, r9, 1
  slti r10, r9, 512
  bnez r10, score_word
  addi r15, r15, 1
  blt  r15, r16, score_pass

  la   r14, result
  sd   r17, 0(r14)
  sd   r18, 8(r14)
  halt

.data
lettertab: .space 32
words:     .space 6144
prefixset: .space 1024
result:    .space 16
)",
               "PASSES", passes);
}

}  // namespace erel::workloads
