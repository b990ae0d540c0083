// Floating-point kernels (mgrid / tomcatv / applu / swim / hydro2d
// analogues). All are unrolled or chain-interleaved so that many FP register
// versions are in flight at once — the high-register-pressure regime the
// paper's FP results depend on.
#include <string>

#include "workloads/workloads.hpp"

namespace erel::workloads {

namespace {

struct Subst {
  std::string_view key;
  unsigned long long value;
};

/// subst() for several numeric keys, in order.
std::string subst_all(std::string text, std::initializer_list<Subst> pairs) {
  for (const Subst& s : pairs) text = subst(std::move(text), s.key, s.value);
  return text;
}

/// Shared preamble: fills `count` doubles at label `dst` with pseudo-random
/// values in [0,1) + 0.5, using f3 = 1/65536. Clobbers r5, r6, r9, r10, f4.
/// The caller must have loaded f3 (inv65536) and f9 (half) already.
/// {DST} and {TAG} are left for fill_random_at to substitute.
std::string fill_random(unsigned long long count) {
  return subst(R"(  la   r6, {DST}
  li   r10, {COUNT}
  slli r10, r10, 3
  add  r10, r6, r10       # end pointer
fill_{TAG}:
  mul  r5, r5, r20
  addi r5, r5, 4321
  slli r5, r5, 32
  srli r5, r5, 32
  slli r9, r5, 40
  srli r9, r9, 48         # 16-bit field
  cvtdi f4, r9
  fmul f4, f4, f3         # scale to [0,1)
  fadd f4, f4, f9         # shift to [0.5,1.5): keeps divisors away from 0
  fsd  f4, 0(r6)
  addi r6, r6, 8
  blt  r6, r10, fill_{TAG}
)",
               "COUNT", count);
}

std::string fill_random_at(const std::string& dst, unsigned long long count,
                           const std::string& tag) {
  return subst(subst(fill_random(count), "DST", dst), "TAG", tag);
}

}  // namespace

// ---------------------------------------------------------------------------
// mgrid: 3-D 7-point stencil relaxation (multigrid smoother), ping-pong
// buffers, inner loop unrolled x2 with ~22 live FP registers.
// ---------------------------------------------------------------------------
std::string kernel_mgrid(unsigned dim, unsigned sweeps) {
  const unsigned long long d = dim;
  const unsigned long long cells = d * d * d;
  std::string src = R"(# mgrid analogue: 7-point stencil relaxation on a {D}^3 grid
main:
  li   r20, 1103515245
  li   r5, 31337
  la   r8, consts
  fld  f3, 0(r8)          # 1/65536
  fld  f9, 8(r8)          # 0.5
  fld  f1, 16(r8)         # w0 (center weight)
  fld  f2, 24(r8)         # w1 (neighbour weight)
)" + fill_random_at("gridA", cells, "a") +
                    R"(
  li   r11, 0             # sweep counter
  li   r12, {SWEEPS}
  la   r3, gridA
  la   r4, gridB
  li   r21, {D}
  addi r22, r21, -1       # interior bound
sweep:
  li   r25, 1             # i
i_loop:
  li   r26, 1             # j
j_loop:
  mul  r14, r25, r21
  add  r14, r14, r26
  mul  r14, r14, r21
  addi r14, r14, 1
  slli r14, r14, 3
  add  r8, r3, r14        # &in[i][j][1]
  add  r9, r4, r14        # &out[i][j][1]
  li   r7, {INTERIOR}     # k iterations (even)
k_loop:
  fld  f10, 0(r8)
  fld  f11, -8(r8)
  fld  f12, 8(r8)
  fld  f13, -{DB}(r8)
  fld  f14, {DB}(r8)
  fld  f15, -{D2B}(r8)
  fld  f16, {D2B}(r8)
  fadd f17, f11, f12
  fadd f18, f13, f14
  fadd f19, f15, f16
  fadd f17, f17, f18
  fadd f17, f17, f19
  fmul f18, f10, f1
  fmul f19, f17, f2
  fadd f20, f18, f19
  fsd  f20, 0(r9)
  fld  f21, 8(r8)
  fld  f22, 0(r8)
  fld  f23, 16(r8)
  fld  f24, -{DBm8}(r8)
  fld  f25, {DBp8}(r8)
  fld  f26, -{D2Bm8}(r8)
  fld  f27, {D2Bp8}(r8)
  fadd f28, f22, f23
  fadd f29, f24, f25
  fadd f30, f26, f27
  fadd f28, f28, f29
  fadd f28, f28, f30
  fmul f29, f21, f1
  fmul f30, f28, f2
  fadd f31, f29, f30
  fsd  f31, 8(r9)
  addi r8, r8, 16
  addi r9, r9, 16
  addi r7, r7, -2
  bnez r7, k_loop
  addi r26, r26, 1
  blt  r26, r22, j_loop
  addi r25, r25, 1
  blt  r25, r22, i_loop
  mv   r14, r3            # ping-pong swap
  mv   r3, r4
  mv   r4, r14
  addi r11, r11, 1
  blt  r11, r12, sweep

  # checksum over the final grid (in r3 after the swap)
  cvtdi f5, r0
  li   r7, {CELLS}
  slli r7, r7, 3
  add  r7, r3, r7
check:
  fld  f6, 0(r3)
  fadd f5, f5, f6
  addi r3, r3, 8
  blt  r3, r7, check
  la   r9, result
  fsd  f5, 0(r9)
  cvtid r10, f5
  sd   r10, 8(r9)
  halt

.data
consts: .double 0.0000152587890625, 0.5, 0.5, 0.08333333333333333
gridA:  .space {CELLSB}
gridB:  .space {CELLSB}
result: .space 16
)";
  return subst_all(std::move(src),
                   {{"D", d},
                    {"SWEEPS", sweeps},
                    {"INTERIOR", d - 2},
                    {"DB", d * 8},
                    {"DBm8", d * 8 - 8},
                    {"DBp8", d * 8 + 8},
                    {"D2B", d * d * 8},
                    {"D2Bm8", d * d * 8 - 8},
                    {"D2Bp8", d * d * 8 + 8},
                    {"CELLS", cells},
                    {"CELLSB", cells * 8}});
}

// ---------------------------------------------------------------------------
// tomcatv: 2-D mesh smoothing over two coordinate arrays X and Y with
// interleaved independent dependence chains and residual tracking (fabs +
// fmax), one divide per row.
// ---------------------------------------------------------------------------
std::string kernel_tomcatv(unsigned dim, unsigned iters) {
  const unsigned long long d = dim;
  std::string src = R"(# tomcatv analogue: mesh smoothing on two {D}x{D} coordinate arrays
main:
  li   r20, 1103515245
  li   r5, 424242
  la   r8, consts
  fld  f3, 0(r8)          # 1/65536
  fld  f9, 8(r8)          # 0.5
  fld  f1, 16(r8)         # 0.25
  fld  f2, 24(r8)         # relaxation 0.9
)" + fill_random_at("meshX", d * d, "x") +
                    fill_random_at("meshY", d * d, "y") +
                    R"(
  li   r11, 0             # iteration counter
  li   r12, {ITERS}
  la   r3, meshX
  la   r4, meshY
  li   r21, {D}
  addi r22, r21, -1
  cvtdi f30, r0           # running residual (fmax accumulator)
iter:
  li   r25, 1             # i (row)
row:
  # row scale = 1 / (1 + i/D): one fdiv per row, as in the original's RX/RY
  cvtdi f20, r25
  cvtdi f21, r21
  fdiv f20, f20, f21
  fld  f22, 32(r8)        # 1.0
  fadd f20, f20, f22
  fdiv f28, f22, f20      # row scale
  mul  r14, r25, r21
  addi r14, r14, 1
  slli r14, r14, 3
  add  r9, r3, r14        # &X[i][1]
  add  r10, r4, r14       # &Y[i][1]
  li   r7, {INTERIOR}
col:
  # X chain
  fld  f10, -8(r9)
  fld  f11, 8(r9)
  fld  f12, -{DB}(r9)
  fld  f13, {DB}(r9)
  fld  f14, 0(r9)
  fadd f15, f10, f11
  fadd f16, f12, f13
  fadd f15, f15, f16
  fmul f15, f15, f1       # neighbour average
  fmul f15, f15, f28      # row scaling
  fsub f17, f15, f14      # correction
  fmul f17, f17, f2
  fadd f18, f14, f17
  fsd  f18, 0(r9)
  fabs f17, f17
  fmax f30, f30, f17      # residual
  # Y chain (independent of X chain: doubles in-flight pressure)
  fld  f19, -8(r10)
  fld  f23, 8(r10)
  fld  f24, -{DB}(r10)
  fld  f25, {DB}(r10)
  fld  f26, 0(r10)
  fadd f27, f19, f23
  fadd f29, f24, f25
  fadd f27, f27, f29
  fmul f27, f27, f1
  fmul f27, f27, f28
  fsub f31, f27, f26
  fmul f31, f31, f2
  fadd f6, f26, f31
  fsd  f6, 0(r10)
  fabs f31, f31
  fmax f30, f30, f31
  addi r9, r9, 8
  addi r10, r10, 8
  addi r7, r7, -1
  bnez r7, col
  addi r25, r25, 1
  blt  r25, r22, row
  addi r11, r11, 1
  blt  r11, r12, iter

  # checksum: residual + X[D/2][D/2] + Y[D/2][D/2]
  la   r9, result
  fsd  f30, 0(r9)
  li   r14, {MID}
  slli r14, r14, 3
  add  r15, r3, r14
  fld  f10, 0(r15)
  add  r15, r4, r14
  fld  f11, 0(r15)
  fadd f10, f10, f11
  fsd  f10, 8(r9)
  halt

.data
consts: .double 0.0000152587890625, 0.5, 0.25, 0.9, 1.0
meshX:  .space {AREAB}
meshY:  .space {AREAB}
result: .space 16
)";
  return subst_all(std::move(src), {{"D", d},
                                    {"ITERS", iters},
                                    {"INTERIOR", d - 2},
                                    {"DB", d * 8},
                                    {"MID", (d / 2) * d + d / 2},
                                    {"AREAB", d * d * 8}});
}

// ---------------------------------------------------------------------------
// applu: batched dense 5x5 LU factorization + forward/backward triangular
// solves on diagonally-dominant systems regenerated per batch.
// ---------------------------------------------------------------------------
std::string kernel_applu(unsigned systems) {
  std::string src = R"(# applu analogue: {SYS} dense 5x5 LU factorizations + solves
main:
  li   r20, 1103515245
  li   r5, 271828
  la   r8, consts
  fld  f3, 0(r8)          # 1/65536
  fld  f9, 8(r8)          # 0.5
  fld  f1, 16(r8)         # 10.0 (diagonal boost)
  cvtdi f29, r0           # solution checksum
  li   r11, 0             # system counter
  li   r12, {SYS}
system:
  # Regenerate A (5x5) and b (5) with values in [0.5, 1.5); A[i][i] += 10.
  la   r6, matA
  li   r10, 30            # 25 + 5 entries
  slli r10, r10, 3
  add  r10, r6, r10
gen:
  mul  r5, r5, r20
  addi r5, r5, 4321
  slli r5, r5, 32
  srli r5, r5, 32
  slli r9, r5, 40
  srli r9, r9, 48
  cvtdi f4, r9
  fmul f4, f4, f3
  fadd f4, f4, f9
  fsd  f4, 0(r6)
  addi r6, r6, 8
  blt  r6, r10, gen
  la   r6, matA
  li   r9, 0
diag:
  li   r14, 48            # (5*8)+8 bytes: stride between diagonal elements
  mul  r14, r14, r9
  add  r14, r6, r14
  fld  f4, 0(r14)
  fadd f4, f4, f1
  fsd  f4, 0(r14)
  addi r9, r9, 1
  slti r10, r9, 5
  bnez r10, diag

  # LU factorization, k = 0..4 (no pivoting: diagonally dominant).
  li   r9, 0              # k
lu_k:
  li   r14, 48
  mul  r14, r14, r9
  add  r14, r6, r14       # &A[k][k]
  fld  f10, 0(r14)
  fld  f11, 40(r8)        # 1.0
  fdiv f12, f11, f10      # inv pivot
  addi r10, r9, 1         # i
lu_i:
  slti r15, r10, 5
  beqz r15, lu_k_next
  # A[i][k] *= inv
  li   r15, 40
  mul  r15, r15, r10
  slli r16, r9, 3
  add  r15, r15, r16
  add  r15, r6, r15       # &A[i][k]
  fld  f13, 0(r15)
  fmul f13, f13, f12
  fsd  f13, 0(r15)
  # row update: A[i][j] -= A[i][k] * A[k][j], j = k+1..4
  addi r16, r9, 1         # j
lu_j:
  slti r17, r16, 5
  beqz r17, lu_i_next
  li   r17, 40
  mul  r17, r17, r10
  slli r18, r16, 3
  add  r17, r17, r18
  add  r17, r6, r17       # &A[i][j]
  li   r18, 40
  mul  r18, r18, r9
  slli r19, r16, 3
  add  r18, r18, r19
  add  r18, r6, r18       # &A[k][j]
  fld  f14, 0(r17)
  fld  f15, 0(r18)
  fmul f15, f15, f13
  fsub f14, f14, f15
  fsd  f14, 0(r17)
  addi r16, r16, 1
  b    lu_j
lu_i_next:
  addi r10, r10, 1
  b    lu_i
lu_k_next:
  addi r9, r9, 1
  slti r10, r9, 5
  bnez r10, lu_k

  # Forward solve Ly = b (unit diagonal), then backward solve Ux = y.
  la   r7, matA
  li   r14, 200           # b starts at offset 25*8
  add  r7, r7, r14        # &b[0]
  li   r9, 1              # i
fwd:
  li   r14, 40
  mul  r14, r14, r9
  add  r14, r6, r14       # &A[i][0]
  slli r15, r9, 3
  la   r16, matA
  li   r17, 200
  add  r16, r16, r17
  add  r15, r16, r15      # &b[i]
  fld  f16, 0(r15)
  li   r16, 0             # j
fwd_j:
  slli r17, r16, 3
  add  r17, r14, r17      # &A[i][j]
  fld  f17, 0(r17)
  la   r18, matA
  li   r19, 200
  add  r18, r18, r19
  slli r19, r16, 3
  add  r18, r18, r19      # &b[j]
  fld  f18, 0(r18)
  fmul f17, f17, f18
  fsub f16, f16, f17
  addi r16, r16, 1
  blt  r16, r9, fwd_j
  fsd  f16, 0(r15)
  addi r9, r9, 1
  slti r10, r9, 5
  bnez r10, fwd

  li   r9, 4              # backward: i = 4..0
bwd:
  li   r14, 40
  mul  r14, r14, r9
  add  r14, r6, r14       # &A[i][0]
  la   r16, matA
  li   r17, 200
  add  r16, r16, r17
  slli r15, r9, 3
  add  r15, r16, r15      # &b[i] (holds y, becomes x)
  fld  f16, 0(r15)
  addi r16, r9, 1         # j
bwd_j:
  slti r17, r16, 5
  beqz r17, bwd_div
  slli r17, r16, 3
  add  r17, r14, r17      # &A[i][j]
  fld  f17, 0(r17)
  la   r18, matA
  li   r19, 200
  add  r18, r18, r19
  slli r19, r16, 3
  add  r18, r18, r19
  fld  f18, 0(r18)        # x[j]
  fmul f17, f17, f18
  fsub f16, f16, f17
  addi r16, r16, 1
  b    bwd_j
bwd_div:
  slli r17, r9, 3
  add  r17, r14, r17      # &A[i][i]
  fld  f17, 0(r17)
  fdiv f16, f16, f17
  fsd  f16, 0(r15)
  fadd f29, f29, f16      # checksum accumulates every solution component
  addi r9, r9, -1
  bge  r9, r0, bwd

  addi r11, r11, 1
  blt  r11, r12, system

  la   r9, result
  fsd  f29, 0(r9)
  cvtid r10, f29
  sd   r10, 8(r9)
  halt

.data
consts: .double 0.0000152587890625, 0.5, 10.0, 0.0, 0.0, 1.0
matA:   .space 240
result: .space 16
)";
  return subst_all(std::move(src), {{"SYS", systems}});
}

// ---------------------------------------------------------------------------
// swim: shallow-water finite differences over three fields (U, V, P) with
// separate old/new arrays — a streaming, memory-bound FP kernel.
// ---------------------------------------------------------------------------
std::string kernel_swim(unsigned dim, unsigned steps) {
  const unsigned long long d = dim;
  std::string src = R"(# swim analogue: shallow-water update on three {D}x{D} fields
main:
  li   r20, 1103515245
  li   r5, 161803
  la   r8, consts
  fld  f3, 0(r8)          # 1/65536
  fld  f9, 8(r8)          # 0.5
  fld  f1, 16(r8)         # dt/dx = 0.1
  fld  f2, 24(r8)         # damping 0.99
)" + fill_random_at("fieldU", d * d, "u") +
                    fill_random_at("fieldV", d * d, "v") +
                    fill_random_at("fieldP", d * d, "p") +
                    R"(
  li   r11, 0
  li   r12, {STEPS}
step:
  la   r3, fieldU
  la   r4, fieldV
  la   r6, fieldP
  la   r13, newU
  la   r14, newV
  la   r15, newP
  li   r21, {D}
  addi r22, r21, -1
  li   r25, 1             # i
srow:
  mul  r16, r25, r21
  addi r16, r16, 1
  slli r16, r16, 3        # byte offset of (i,1)
  li   r7, {INTERIOR}
scol:
  add  r9, r6, r16        # &P[i][j]
  fld  f10, 8(r9)         # P east
  fld  f11, -8(r9)        # P west
  fld  f12, {DB}(r9)      # P south
  fld  f13, -{DB}(r9)     # P north
  add  r9, r3, r16
  fld  f14, 0(r9)         # U
  add  r10, r4, r16
  fld  f15, 0(r10)        # V
  fsub f16, f10, f11      # dP/dx
  fsub f17, f12, f13      # dP/dy
  fmul f16, f16, f1
  fmul f17, f17, f1
  fsub f18, f14, f16      # U' = U - dt*dP/dx
  fsub f19, f15, f17      # V' = V - dt*dP/dy
  fmul f18, f18, f2
  fmul f19, f19, f2
  add  r9, r13, r16
  fsd  f18, 0(r9)
  add  r9, r14, r16
  fsd  f19, 0(r9)
  # P' = P - dt*(dU/dx + dV/dy)
  add  r9, r3, r16
  fld  f20, 8(r9)
  fld  f21, -8(r9)
  add  r10, r4, r16
  fld  f22, {DB}(r10)
  fld  f23, -{DB}(r10)
  fsub f24, f20, f21
  fsub f25, f22, f23
  fadd f24, f24, f25
  fmul f24, f24, f1
  add  r9, r6, r16
  fld  f26, 0(r9)
  fsub f26, f26, f24
  add  r9, r15, r16
  fsd  f26, 0(r9)
  addi r16, r16, 8
  addi r7, r7, -1
  bnez r7, scol
  addi r25, r25, 1
  blt  r25, r22, srow
  # copy new -> old (interior only would leave borders; copy all cells)
  la   r3, fieldU
  la   r13, newU
  li   r7, {CELLS3}
  slli r7, r7, 3
  add  r7, r3, r7         # U,V,P are contiguous: one bulk copy
copy:
  fld  f10, 0(r13)
  fsd  f10, 0(r3)
  addi r3, r3, 8
  addi r13, r13, 8
  blt  r3, r7, copy
  addi r11, r11, 1
  blt  r11, r12, step

  # checksum: sum of P
  la   r6, fieldP
  li   r7, {CELLS}
  slli r7, r7, 3
  add  r7, r6, r7
  cvtdi f5, r0
scheck:
  fld  f6, 0(r6)
  fadd f5, f5, f6
  addi r6, r6, 8
  blt  r6, r7, scheck
  la   r9, result
  fsd  f5, 0(r9)
  halt

.data
consts: .double 0.0000152587890625, 0.5, 0.1, 0.99
fieldU: .space {AREAB}
fieldV: .space {AREAB}
fieldP: .space {AREAB}
newU:   .space {AREAB}
newV:   .space {AREAB}
newP:   .space {AREAB}
result: .space 16
)";
  return subst_all(std::move(src), {{"D", d},
                                    {"STEPS", steps},
                                    {"INTERIOR", d - 2},
                                    {"DB", d * 8},
                                    {"CELLS", d * d},
                                    {"CELLS3", d * d * 3},
                                    {"AREAB", d * d * 8}});
}

// ---------------------------------------------------------------------------
// hydro2d: directional flux sweeps with upwind limiters (fabs, fmin, fmax)
// over density/momentum fields.
// ---------------------------------------------------------------------------
std::string kernel_hydro2d(unsigned dim, unsigned steps) {
  const unsigned long long d = dim;
  std::string src = R"(# hydro2d analogue: limiter-based flux sweeps on {D}x{D} fields
main:
  li   r20, 1103515245
  li   r5, 141421
  la   r8, consts
  fld  f3, 0(r8)          # 1/65536
  fld  f9, 8(r8)          # 0.5
  fld  f1, 16(r8)         # courant 0.4
  fld  f2, 24(r8)         # floor 0.05
)" + fill_random_at("rho", d * d, "r") +
                    fill_random_at("mom", d * d, "m") +
                    R"(
  li   r11, 0
  li   r12, {STEPS}
hstep:
  la   r3, rho
  la   r4, mom
  li   r21, {D}
  addi r22, r21, -1
  # --- horizontal sweep ---
  li   r25, 1
hrow:
  mul  r16, r25, r21
  addi r16, r16, 1
  slli r16, r16, 3
  add  r9, r3, r16        # &rho[i][1]
  add  r10, r4, r16       # &mom[i][1]
  li   r7, {INTERIOR}
hcol:
  fld  f10, -8(r9)        # q west
  fld  f11, 0(r9)         # q
  fld  f12, 8(r9)         # q east
  fld  f13, 0(r10)        # velocity proxy
  fabs f14, f13
  fmax f14, f14, f2       # |v| floored
  fsub f15, f12, f11      # right slope
  fsub f16, f11, f10      # left slope
  fmin f17, f15, f16      # minmod-ish limiter
  fmax f18, f15, f16
  fabs f19, f17
  fabs f20, f18
  fmin f21, f19, f20
  fadd f22, f10, f12
  fmul f22, f22, f9       # centred average
  fmul f23, f14, f21      # dissipation
  fsub f24, f22, f23
  fsub f24, f24, f11      # correction
  fmul f24, f24, f1
  fadd f25, f11, f24
  fsd  f25, 0(r9)
  # momentum advects with the limited flux
  fmul f26, f24, f13
  fadd f27, f13, f26
  fmul f27, f27, f9
  fadd f27, f27, f13
  fmul f27, f27, f9
  fsd  f27, 0(r10)
  addi r9, r9, 8
  addi r10, r10, 8
  addi r7, r7, -1
  bnez r7, hcol
  addi r25, r25, 1
  blt  r25, r22, hrow
  # --- vertical sweep (stride D) ---
  li   r26, 1             # column
vcol_outer:
  addi r16, r21, 0
  add  r16, r16, r26      # index (1, j)
  slli r16, r16, 3
  add  r9, r3, r16
  add  r10, r4, r16
  li   r7, {INTERIOR}
vrow:
  fld  f10, -{DB}(r9)
  fld  f11, 0(r9)
  fld  f12, {DB}(r9)
  fld  f13, 0(r10)
  fabs f14, f13
  fmax f14, f14, f2
  fsub f15, f12, f11
  fsub f16, f11, f10
  fmin f17, f15, f16
  fmax f18, f15, f16
  fabs f19, f17
  fabs f20, f18
  fmin f21, f19, f20
  fadd f22, f10, f12
  fmul f22, f22, f9
  fmul f23, f14, f21
  fsub f24, f22, f23
  fsub f24, f24, f11
  fmul f24, f24, f1
  fadd f25, f11, f24
  fsd  f25, 0(r9)
  fmul f26, f24, f13
  fadd f27, f13, f26
  fmul f27, f27, f9
  fadd f27, f27, f13
  fmul f27, f27, f9
  fsd  f27, 0(r10)
  addi r9, r9, {DB}
  addi r10, r10, {DB}
  addi r7, r7, -1
  bnez r7, vrow
  addi r26, r26, 1
  blt  r26, r22, vcol_outer
  addi r11, r11, 1
  blt  r11, r12, hstep

  # checksum: sum of rho + max |mom|
  la   r6, rho
  li   r7, {CELLS}
  slli r7, r7, 3
  add  r7, r6, r7
  cvtdi f5, r0
  cvtdi f6, r0
hcheck:
  fld  f7, 0(r6)
  fadd f5, f5, f7
  addi r6, r6, 8
  blt  r6, r7, hcheck
  la   r6, mom
  li   r7, {CELLS}
  slli r7, r7, 3
  add  r7, r6, r7
mcheck:
  fld  f7, 0(r6)
  fabs f7, f7
  fmax f6, f6, f7
  addi r6, r6, 8
  blt  r6, r7, mcheck
  la   r9, result
  fsd  f5, 0(r9)
  fsd  f6, 8(r9)
  halt

.data
consts: .double 0.0000152587890625, 0.5, 0.4, 0.05
rho:    .space {AREAB}
mom:    .space {AREAB}
result: .space 16
)";
  return subst_all(std::move(src), {{"D", d},
                                    {"STEPS", steps},
                                    {"INTERIOR", d - 2},
                                    {"DB", d * 8},
                                    {"CELLS", d * d},
                                    {"AREAB", d * d * 8}});
}

}  // namespace erel::workloads
