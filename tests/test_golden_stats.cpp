// Golden pin: the SimStats view materialized from the StatRegistry must be
// value-identical to the pre-refactor (closed-struct) implementation. The
// table below was captured from the seed tree *before* the Instrumentation
// API v2 refactor: all ten kernels at smoke scale (max_instructions =
// 20000, oracle off) under conv/96 and extended/64. Every field of every
// cell is pinned — counters exactly, occupancy averages to 1e-12 relative
// (they are double divisions of exactly-reproduced integrals).
//
// The basic/64 rows came later: they were captured on commit 2e4aa73, the
// last tree whose LUs Table broadcast the C bit to every checkpoint copy and
// whose extended policy kept a level-based Release Queue, with this test's
// own config, before either structure was replaced.
//
// If this test fails, the observation-layer refactor changed simulated
// results; fix the regression, do not re-capture the table.
#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace erel {
namespace {

struct GoldenValues {
  std::uint64_t cycles, committed;
  std::uint64_t cond_branches, cond_mispredicts;
  std::uint64_t indirect_jumps, indirect_mispredicts;
  std::uint64_t ros_full, lsq_full, checkpoints_full, free_list_empty;
  std::uint64_t flushes_injected, icache_stall_cycles;
  std::uint64_t policy_int[8];
  std::uint64_t policy_fp[8];
  double occ_int[3];
  double occ_fp[3];
  std::uint64_t squash_released[2];
  std::uint64_t l1i[3], l1d[3], l2[3];
};

struct GoldenCell {
  const char* workload;
  const char* policy;
  unsigned phys;
  GoldenValues v;
};

const GoldenCell kGolden[] = {
{"compress", "conv", 96,
 {17040ull, 20006ull, 5233ull, 1011ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 9268ull, 0ull, 142ull,
  {16163ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {37.197124413145538, 17.404518779342723, 25.042488262910798}, {0, 0, 32},
  41781ull, 0ull,
  {15363ull, 7ull, 0ull}, {1281ull, 21ull, 0ull}, {28ull, 25ull, 0ull}}},
{"compress", "extended", 64,
 {17040ull, 20006ull, 3752ull, 1005ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 12158ull, 0ull, 142ull,
  {0ull, 12848ull, 1502ull, 0ull, 1815ull, 36442ull, 0ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {21.925469483568076, 13.57400234741784, 23.358274647887324}, {0, 0, 32},
  23833ull, 0ull,
  {11741ull, 7ull, 0ull}, {1281ull, 21ull, 0ull}, {28ull, 25ull, 0ull}}},
{"gcc", "conv", 96,
 {18228ull, 20004ull, 5842ull, 2002ull, 1778ull, 699ull,
  0ull, 0ull, 0ull, 2620ull, 0ull, 462ull,
  {16613ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {23.712804476629362, 19.220923853412334, 22.03439763001975}, {0, 0, 32},
  44020ull, 0ull,
  {26723ull, 16ull, 0ull}, {2726ull, 9ull, 0ull}, {25ull, 17ull, 0ull}}},
{"gcc", "extended", 64,
 {18390ull, 20004ull, 4580ull, 1752ull, 1786ull, 699ull,
  0ull, 0ull, 0ull, 7561ull, 0ull, 462ull,
  {0ull, 11713ull, 2186ull, 0ull, 2716ull, 37779ull, 0ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {17.134855899945624, 17.159923871669385, 19.389559543230018}, {0, 0, 32},
  26920ull, 0ull,
  {21282ull, 16ull, 0ull}, {2612ull, 9ull, 0ull}, {25ull, 17ull, 0ull}}},
{"go", "conv", 96,
 {12216ull, 20006ull, 8151ull, 1930ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 1810ull, 0ull, 87ull,
  {13706ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {18.355435494433529, 13.456859855926654, 24.993287491814016}, {0, 0, 32},
  29504ull, 0ull,
  {14798ull, 8ull, 0ull}, {5190ull, 6ull, 0ull}, {14ull, 10ull, 0ull}}},
{"go", "extended", 64,
 {12245ull, 20006ull, 7677ull, 1923ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 2961ull, 0ull, 87ull,
  {0ull, 9897ull, 1532ull, 0ull, 2280ull, 34456ull, 0ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {13.796488362596978, 12.100775826868109, 23.656349530420581}, {0, 0, 32},
  23882ull, 0ull,
  {13234ull, 8ull, 0ull}, {5187ull, 6ull, 0ull}, {14ull, 10ull, 0ull}}},
{"li", "conv", 96,
 {14295ull, 20002ull, 6250ull, 2348ull, 259ull, 0ull,
  0ull, 0ull, 0ull, 0ull, 0ull, 274ull,
  {12876ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {9.5738370059461353, 13.338579923050018, 22.627771948233647}, {0, 0, 32},
  45384ull, 0ull,
  {22143ull, 7ull, 0ull}, {8439ull, 4ull, 0ull}, {11ull, 8ull, 0ull}}},
{"li", "extended", 64,
 {14295ull, 20002ull, 6250ull, 2348ull, 259ull, 0ull,
  0ull, 0ull, 0ull, 60ull, 0ull, 274ull,
  {0ull, 6317ull, 2381ull, 0ull, 4182ull, 54659ull, 0ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {9.552221056313396, 13.338230150402239, 21.447219307450158}, {0, 0, 32},
  45299ull, 0ull,
  {22135ull, 7ull, 0ull}, {8439ull, 4ull, 0ull}, {11ull, 8ull, 0ull}}},
{"perl", "conv", 96,
 {16750ull, 20001ull, 1835ull, 604ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14137ull, 0ull, 86ull,
  {16645ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {34.944000000000003, 35.811223880597012, 22.397313432835819}, {0, 0, 32},
  8911ull, 0ull,
  {7505ull, 10ull, 0ull}, {1678ull, 42ull, 0ull}, {52ull, 47ull, 0ull}}},
{"perl", "extended", 64,
 {16782ull, 20001ull, 1739ull, 556ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14593ull, 0ull, 95ull,
  {0ull, 16632ull, 13ull, 0ull, 0ull, 8284ull, 0ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {17.373316648790372, 23.939995232987727, 22.086163746871648}, {0, 0, 32},
  2684ull, 0ull,
  {6453ull, 9ull, 0ull}, {1678ull, 42ull, 0ull}, {51ull, 47ull, 0ull}}},
{"mgrid", "conv", 96,
 {16818ull, 20000ull, 1674ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14931ull, 0ull, 151ull,
  {11671ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {4999ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {49.750743251278394, 17.655428707337375, 27.91277202996789}, {27.788857176834345, 3.1817100725413248, 29.125163515281248},
  222ull, 18ull,
  {5079ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
{"mgrid", "extended", 64,
 {16818ull, 20000ull, 1669ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14961ull, 0ull, 151ull,
  {0ull, 11664ull, 7ull, 0ull, 0ull, 6719ull, 0ull, 0ull},
  {0ull, 4995ull, 5ull, 0ull, 0ull, 2ull, 0ull, 0ull},
  {23.664050422166728, 12.81591152336782, 27.014092044238318}, {13.073492686407421, 3.1817100725413248, 29.010167677488404},
  119ull, 2ull,
  {5056ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
{"tomcatv", "conv", 96,
 {16818ull, 20000ull, 1674ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14931ull, 0ull, 151ull,
  {11671ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {4999ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {49.749197288619335, 17.654536805803307, 27.91277202996789}, {27.790581519800213, 3.1817100725413248, 29.125163515281248},
  193ull, 35ull,
  {5080ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
{"tomcatv", "extended", 64,
 {16818ull, 20000ull, 1669ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14960ull, 0ull, 151ull,
  {0ull, 11664ull, 7ull, 0ull, 0ull, 6713ull, 0ull, 0ull},
  {0ull, 4995ull, 5ull, 0ull, 0ull, 11ull, 0ull, 0ull},
  {23.663931501962182, 12.81549530265192, 27.014092044238318}, {13.074206207634678, 3.1817100725413248, 29.010167677488404},
  113ull, 11ull,
  {5057ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
{"applu", "conv", 96,
 {8310ull, 20001ull, 1566ull, 100ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 5909ull, 0ull, 260ull,
  {12530ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {4308ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {22.815884476534297, 46.981227436823104, 23.183152827918171}, {16.579422382671481, 11.164500601684717, 26.705655836341759},
  968ull, 247ull,
  {4023ull, 21ull, 0ull}, {2526ull, 5ull, 0ull}, {26ull, 16ull, 0ull}}},
{"applu", "extended", 64,
 {9832ull, 20001ull, 1562ull, 100ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 7872ull, 0ull, 265ull,
  {0ull, 12142ull, 86ull, 0ull, 305ull, 8251ull, 0ull, 0ull},
  {0ull, 4041ull, 87ull, 0ull, 181ull, 1781ull, 0ull, 0ull},
  {12.521460537021969, 30.060923515052888, 20.164056143205858}, {9.2722742066720905, 7.9223962571196092, 25.265561432058583},
  761ull, 121ull,
  {4005ull, 21ull, 0ull}, {2596ull, 5ull, 0ull}, {26ull, 16ull, 0ull}}},
{"swim", "conv", 96,
 {16818ull, 20000ull, 1674ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14931ull, 0ull, 151ull,
  {11671ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {4999ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {49.749197288619335, 17.654536805803307, 27.91277202996789}, {27.790581519800213, 3.1817100725413248, 29.125163515281248},
  193ull, 35ull,
  {5080ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
{"swim", "extended", 64,
 {16818ull, 20000ull, 1669ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14960ull, 0ull, 151ull,
  {0ull, 11664ull, 7ull, 0ull, 0ull, 6713ull, 0ull, 0ull},
  {0ull, 4995ull, 5ull, 0ull, 0ull, 11ull, 0ull, 0ull},
  {23.663931501962182, 12.81549530265192, 27.014092044238318}, {13.074206207634678, 3.1817100725413248, 29.010167677488404},
  113ull, 11ull,
  {5057ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
{"hydro2d", "conv", 96,
 {16818ull, 20000ull, 1674ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14931ull, 0ull, 151ull,
  {11671ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {4999ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {49.749197288619335, 17.654536805803307, 27.91277202996789}, {27.790581519800213, 3.1817100725413248, 29.125163515281248},
  193ull, 35ull,
  {5080ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
{"hydro2d", "extended", 64,
 {16818ull, 20000ull, 1669ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14960ull, 0ull, 151ull,
  {0ull, 11664ull, 7ull, 0ull, 0ull, 6713ull, 0ull, 0ull},
  {0ull, 4995ull, 5ull, 0ull, 0ull, 11ull, 0ull, 0ull},
  {23.663931501962182, 12.81549530265192, 27.014092044238318}, {13.074206207634678, 3.1817100725413248, 29.010167677488404},
  113ull, 11ull,
  {5057ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
// basic/64: captured later than the rows above; see the file comment.
{"compress", "basic", 64,
 {17040ull, 20006ull, 3677ull, 1005ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 12171ull, 0ull, 142ull,
  {3150ull, 11512ull, 0ull, 1502ull, 0ull, 0ull, 11325ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {21.283392018779342, 13.349647887323943, 24.288849765258217}, {0, 0, 32},
  23811ull, 0ull,
  {11730ull, 7ull, 0ull}, {1281ull, 21ull, 0ull}, {28ull, 25ull, 0ull}}},
{"gcc", "basic", 64,
 {18409ull, 20004ull, 4465ull, 1725ull, 1786ull, 699ull,
  0ull, 0ull, 0ull, 7961ull, 0ull, 462ull,
  {3434ull, 10994ull, 0ull, 2186ull, 0ull, 0ull, 12100ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {16.534901406920529, 16.824976913466241, 20.733662882285838}, {0, 0, 32},
  26543ull, 0ull,
  {21005ull, 16ull, 0ull}, {2612ull, 9ull, 0ull}, {25ull, 17ull, 0ull}}},
{"go", "basic", 64,
 {12245ull, 20006ull, 7644ull, 1923ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 3034ull, 0ull, 87ull,
  {4177ull, 7997ull, 0ull, 1532ull, 0ull, 0ull, 11947ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {13.602123315639036, 12.047121273989383, 24.219273172723561}, {0, 0, 32},
  23777ull, 0ull,
  {13208ull, 8ull, 0ull}, {5187ull, 6ull, 0ull}, {14ull, 10ull, 0ull}}},
{"li", "basic", 64,
 {14296ull, 20002ull, 6250ull, 2348ull, 259ull, 0ull,
  0ull, 0ull, 0ull, 188ull, 0ull, 274ull,
  {5354ull, 5141ull, 0ull, 2381ull, 0ull, 0ull, 28415ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {9.5253217683268048, 13.336247901510912, 21.934177392277562}, {0, 0, 32},
  45130ull, 0ull,
  {22120ull, 7ull, 0ull}, {8432ull, 4ull, 0ull}, {11ull, 8ull, 0ull}}},
{"perl", "basic", 64,
 {16782ull, 20001ull, 1739ull, 556ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14594ull, 0ull, 95ull,
  {842ull, 15790ull, 0ull, 13ull, 0ull, 0ull, 2526ull, 0ull},
  {0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull},
  {17.369145513049695, 23.939041830532712, 22.105529734239067}, {0, 0, 32},
  2684ull, 0ull,
  {6453ull, 9ull, 0ull}, {1678ull, 42ull, 0ull}, {51ull, 47ull, 0ull}}},
{"mgrid", "basic", 64,
 {16818ull, 20000ull, 1669ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14961ull, 0ull, 151ull,
  {0ull, 11664ull, 0ull, 7ull, 0ull, 0ull, 86ull, 0ull},
  {0ull, 4995ull, 0ull, 5ull, 0ull, 0ull, 2ull, 0ull},
  {23.664050422166728, 12.81591152336782, 27.014092044238318}, {13.073492686407421, 3.1817100725413248, 29.010167677488404},
  119ull, 2ull,
  {5056ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
{"tomcatv", "basic", 64,
 {16818ull, 20000ull, 1669ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14960ull, 0ull, 151ull,
  {0ull, 11664ull, 0ull, 7ull, 0ull, 0ull, 10ull, 0ull},
  {0ull, 4995ull, 0ull, 5ull, 0ull, 0ull, 4ull, 0ull},
  {23.663931501962182, 12.81549530265192, 27.014092044238318}, {13.074206207634678, 3.1817100725413248, 29.010167677488404},
  113ull, 11ull,
  {5057ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
{"applu", "basic", 64,
 {10035ull, 20001ull, 1561ull, 100ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 7795ull, 0ull, 318ull,
  {1794ull, 10622ull, 0ull, 115ull, 0ull, 0ull, 2008ull, 0ull},
  {964ull, 3222ull, 0ull, 123ull, 0ull, 0ull, 1026ull, 0ull},
  {12.047932237169904, 28.664474339810663, 21.832984554060786}, {8.7456900847035381, 7.7197807673143997, 25.970503238664673},
  641ull, 91ull,
  {3975ull, 21ull, 0ull}, {2596ull, 5ull, 0ull}, {26ull, 16ull, 0ull}}},
{"swim", "basic", 64,
 {16818ull, 20000ull, 1669ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14960ull, 0ull, 151ull,
  {0ull, 11664ull, 0ull, 7ull, 0ull, 0ull, 4ull, 0ull},
  {0ull, 4995ull, 0ull, 5ull, 0ull, 0ull, 4ull, 0ull},
  {23.663931501962182, 12.81549530265192, 27.014092044238318}, {13.074206207634678, 3.1817100725413248, 29.010167677488404},
  113ull, 11ull,
  {5057ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
{"hydro2d", "basic", 64,
 {16818ull, 20000ull, 1669ull, 19ull, 0ull, 0ull,
  0ull, 0ull, 0ull, 14960ull, 0ull, 151ull,
  {0ull, 11664ull, 0ull, 7ull, 0ull, 0ull, 10ull, 0ull},
  {0ull, 4995ull, 0ull, 5ull, 0ull, 0ull, 4ull, 0ull},
  {23.663931501962182, 12.81549530265192, 27.014092044238318}, {13.074206207634678, 3.1817100725413248, 29.010167677488404},
  113ull, 11ull,
  {5057ull, 7ull, 0ull}, {1669ull, 209ull, 0ull}, {216ull, 213ull, 0ull}}},
};

void expect_policy_stats(const core::PolicyStats& got,
                         const std::uint64_t (&want)[8], const char* what) {
  EXPECT_EQ(got.conventional_releases, want[0]) << what;
  EXPECT_EQ(got.early_commit_releases, want[1]) << what;
  EXPECT_EQ(got.immediate_releases, want[2]) << what;
  EXPECT_EQ(got.reuses, want[3]) << what;
  EXPECT_EQ(got.branch_confirm_releases, want[4]) << what;
  EXPECT_EQ(got.conditional_schedulings, want[5]) << what;
  EXPECT_EQ(got.fallback_conventional, want[6]) << what;
  EXPECT_EQ(got.stale_suppressed, want[7]) << what;
}

void expect_occupancy(const core::Occupancy& got, const double (&want)[3],
                      const char* what) {
  EXPECT_NEAR(got.avg_empty, want[0], 1e-12 * (1.0 + want[0])) << what;
  EXPECT_NEAR(got.avg_ready, want[1], 1e-12 * (1.0 + want[1])) << what;
  EXPECT_NEAR(got.avg_idle, want[2], 1e-12 * (1.0 + want[2])) << what;
}

void expect_cache(const mem::CacheStats& got, const std::uint64_t (&want)[3],
                  const char* what) {
  EXPECT_EQ(got.accesses, want[0]) << what;
  EXPECT_EQ(got.misses, want[1]) << what;
  EXPECT_EQ(got.writebacks, want[2]) << what;
}

TEST(GoldenStats, SimStatsViewMatchesPreRefactorNumbers) {
  for (const GoldenCell& cell : kGolden) {
    SCOPED_TRACE(std::string(cell.workload) + "/" + cell.policy + "/" +
                 std::to_string(cell.phys));
    sim::SimConfig config = harness::experiment_config(
        core::parse_policy(cell.policy), cell.phys);
    config.max_instructions = 20'000;
    const sim::SimStats s = sim::Simulator(config).run(
        workloads::assemble_workload(cell.workload));
    const GoldenValues& g = cell.v;
    EXPECT_EQ(s.cycles, g.cycles);
    EXPECT_EQ(s.committed, g.committed);
    EXPECT_EQ(s.branches.cond_branches, g.cond_branches);
    EXPECT_EQ(s.branches.cond_mispredicts, g.cond_mispredicts);
    EXPECT_EQ(s.branches.indirect_jumps, g.indirect_jumps);
    EXPECT_EQ(s.branches.indirect_mispredicts, g.indirect_mispredicts);
    EXPECT_EQ(s.stalls.ros_full, g.ros_full);
    EXPECT_EQ(s.stalls.lsq_full, g.lsq_full);
    EXPECT_EQ(s.stalls.checkpoints_full, g.checkpoints_full);
    EXPECT_EQ(s.stalls.free_list_empty, g.free_list_empty);
    EXPECT_EQ(s.flushes_injected, g.flushes_injected);
    EXPECT_EQ(s.icache_stall_cycles, g.icache_stall_cycles);
    expect_policy_stats(s.policy_stats[0], g.policy_int, "policy int");
    expect_policy_stats(s.policy_stats[1], g.policy_fp, "policy fp");
    expect_occupancy(s.occupancy[0], g.occ_int, "occupancy int");
    expect_occupancy(s.occupancy[1], g.occ_fp, "occupancy fp");
    EXPECT_EQ(s.squash_released[0], g.squash_released[0]);
    EXPECT_EQ(s.squash_released[1], g.squash_released[1]);
    expect_cache(s.l1i, g.l1i, "l1i");
    expect_cache(s.l1d, g.l1d, "l1d");
    expect_cache(s.l2, g.l2, "l2");
  }
}

}  // namespace
}  // namespace erel
