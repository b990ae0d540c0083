// Component microbenchmarks (google-benchmark): throughput of the simulator
// building blocks, plus end-to-end simulation speed in instructions/second.
#include <benchmark/benchmark.h>

#include "arch/arch_state.hpp"
#include "asmkit/assembler.hpp"
#include "branch/gshare.hpp"
#include "common/bits.hpp"
#include "core/free_list.hpp"
#include "core/lus_table.hpp"
#include "mem/hierarchy.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace erel;

void BM_GsharePredictResolve(benchmark::State& state) {
  branch::Gshare gshare(18);
  Xorshift rng(1);
  std::uint64_t pc = 0x10000;
  for (auto _ : state) {
    std::uint32_t cp;
    const bool pred = gshare.predict(pc, &cp);
    const bool actual = rng.chance(0.7);
    gshare.resolve(pc, cp, actual, pred != actual);
    if (pred != actual) gshare.repair(cp, actual);
    pc += 4;
    if (pc > 0x20000) pc = 0x10000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GsharePredictResolve);

void BM_CacheAccess(benchmark::State& state) {
  mem::MemoryHierarchy hierarchy{mem::HierarchyConfig{}};
  Xorshift rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy.dload(rng.below(1u << 20) & ~7ull));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_FreeListAllocRelease(benchmark::State& state) {
  core::FreeList fl(160, 32);
  for (auto _ : state) {
    const core::PhysReg p = fl.allocate();
    fl.release(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreeListAllocRelease);

void BM_LusTableRecordLookup(benchmark::State& state) {
  core::LUsTable lus;
  core::InstSeq seq = 1;
  for (auto _ : state) {
    lus.record_use(seq % 32, seq, core::UseKind::Src1);
    benchmark::DoNotOptimize(lus.lookup((seq + 7) % 32));
    lus.on_commit(seq);  // drops the undo record, as commit does in a run
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LusTableRecordLookup);

void BM_Assembler(benchmark::State& state) {
  const std::string source = workloads::workload("compress").source;
  for (auto _ : state) {
    benchmark::DoNotOptimize(asmkit::assemble(source));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(source.size()));
}
BENCHMARK(BM_Assembler);

void BM_FunctionalSimulator(benchmark::State& state) {
  const arch::Program program = workloads::assemble_workload("go");
  for (auto _ : state) {
    arch::ArchState arch(program);
    arch.run();
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(
                                arch.instructions_executed()));
  }
}
BENCHMARK(BM_FunctionalSimulator)->Unit(benchmark::kMillisecond);

void BM_TimingSimulator(benchmark::State& state) {
  // End-to-end cycle-level simulation speed (committed instructions/s),
  // extended policy, oracle off.
  const arch::Program program = workloads::assemble_workload("go");
  sim::SimConfig config;
  config.policy = static_cast<core::PolicyKind>(state.range(0));
  config.phys_int = config.phys_fp = 64;
  config.check_oracle = false;
  for (auto _ : state) {
    pipeline::Core core(config, program);
    const sim::SimStats stats = core.run();
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(stats.committed));
  }
}
BENCHMARK(BM_TimingSimulator)
    ->Arg(0)  // conventional
    ->Arg(1)  // basic
    ->Arg(2)  // extended
    ->Unit(benchmark::kMillisecond);

void BM_TimingSimulatorWithOracle(benchmark::State& state) {
  const arch::Program program = workloads::assemble_workload("go");
  sim::SimConfig config;
  config.policy = core::PolicyKind::Extended;
  config.phys_int = config.phys_fp = 64;
  config.check_oracle = true;
  for (auto _ : state) {
    pipeline::Core core(config, program);
    const sim::SimStats stats = core.run();
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(stats.committed));
  }
}
BENCHMARK(BM_TimingSimulatorWithOracle)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
