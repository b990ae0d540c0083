// Acceptance bench for checkpointed sampled simulation: on a long-running
// looped kernel (>= 10M committed instructions), interval sampling with
// functional warming must reproduce the full detailed-simulation IPC within
// 3%, and sharding the sampling units across worker threads must reproduce
// the serial SampleRecords bit-for-bit. The exit code depends on those
// three checks only. The sampled speedup (serial sampling over full detail)
// and the shard speedup (sharded over serial sampling) depend on the host,
// so they are printed as measured figures and gate nothing; the
// fig11-sampled and go-long benchmark workloads (perfbench/) track
// wall-clock instead.
//
//   $ ./sampled_speedup [sweeps] [threads]
//     sweeps     go-kernel board sweeps        (default 2400, ~10.6M insts)
//     threads    sharded-run worker threads    (default min(hw, 8))
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "asmkit/assembler.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace erel;

  const auto bad_argument = [&](const char* what, const char* text) {
    std::fprintf(stderr,
                 "%s: bad %s '%s'\n"
                 "usage: %s [sweeps] [threads]\n"
                 "  threads 1..%u\n",
                 argv[0], what, text, argv[0], kMaxThreads);
    std::exit(2);
  };
  // Positional counts: plain decimal digits in [1, max], or usage and exit 2.
  const auto count = [&](int index, const char* what, unsigned fallback,
                         unsigned max) {
    if (argc <= index) return fallback;
    const std::optional<unsigned> v = parse_uint<unsigned>(argv[index]);
    if (!v || *v == 0 || *v > max) bad_argument(what, argv[index]);
    return *v;
  };
  const unsigned sweeps = count(1, "sweeps", 2400, ~0u);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = count(2, "threads", std::min(hw, 8u), kMaxThreads);
  if (argc > 3) bad_argument("argument", argv[3]);

  std::printf("assembling go(%u) — board scanning, data-dependent branches\n",
              sweeps);
  const arch::Program program =
      asmkit::assemble(workloads::kernel_go(sweeps));

  sim::SimConfig config;
  config.policy = core::PolicyKind::Extended;
  config.phys_int = config.phys_fp = 64;
  config.check_oracle = false;

  std::printf("full detailed simulation...\n");
  auto t0 = std::chrono::steady_clock::now();
  const sim::SimStats full = sim::Simulator(config).run(program);
  const double full_seconds = seconds_since(t0);

  sim::SamplingConfig sampling;
  sampling.period = 500'000;
  sampling.warmup = 20'000;
  sampling.detail = 50'000;
  sampling.seed = 42;
  sampling.threads = 1;
  std::printf(
      "serial sampled simulation (period=%llu, warmup=%llu, detail=%llu, "
      "placement=stratified, functional warming on)...\n",
      static_cast<unsigned long long>(sampling.period),
      static_cast<unsigned long long>(sampling.warmup),
      static_cast<unsigned long long>(sampling.detail));
  t0 = std::chrono::steady_clock::now();
  const sim::SampledStats serial =
      sim::SampledSimulator(config, sampling).run(program);
  const double serial_seconds = seconds_since(t0);

  std::printf("sharded sampled simulation (%u threads)...\n", threads);
  sampling.threads = threads;
  t0 = std::chrono::steady_clock::now();
  const sim::SampledStats sharded =
      sim::SampledSimulator(config, sampling).run(program);
  const double sharded_seconds = seconds_since(t0);

  const double ipc_err =
      full.ipc() == 0.0 ? 0.0
                        : (serial.estimate.ipc() - full.ipc()) / full.ipc();
  const double speedup =
      serial_seconds == 0.0 ? 0.0 : full_seconds / serial_seconds;
  const double shard_speedup =
      sharded_seconds == 0.0 ? 0.0 : serial_seconds / sharded_seconds;

  std::printf("\n=== full vs. serial vs. sharded sampled simulation ===\n");
  TextTable t({"metric", "full", "serial sampled", "sharded sampled"});
  t.add_row({"instructions", std::to_string(full.committed),
             std::to_string(serial.total_instructions),
             std::to_string(sharded.total_instructions)});
  t.add_row({"IPC", TextTable::num(full.ipc(), 4),
             TextTable::num(serial.estimate.ipc(), 4),
             TextTable::num(sharded.estimate.ipc(), 4)});
  t.add_row({"IPC 95% CI", "-", TextTable::num(serial.ipc_ci95, 4),
             TextTable::num(sharded.ipc_ci95, 4)});
  t.add_row({"wall seconds", TextTable::num(full_seconds, 2),
             TextTable::num(serial_seconds, 2),
             TextTable::num(sharded_seconds, 2)});
  t.add_row({"samples", "-", std::to_string(serial.samples.size()),
             std::to_string(sharded.samples.size())});
  t.add_row({"detail fraction", "100%",
             TextTable::pct(serial.detail_fraction(), 1),
             TextTable::pct(sharded.detail_fraction(), 1)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("%s", sim::format_sampled_stats(sharded).c_str());

  const bool ipc_ok = ipc_err > -0.03 && ipc_err < 0.03;
  const bool long_enough = full.committed >= 10'000'000;
  // Bit-for-bit determinism: sharding must only reorder work, never results.
  const bool deterministic = serial.samples == sharded.samples &&
                             serial.ipc_ci95 == sharded.ipc_ci95 &&
                             serial.estimate.cycles == sharded.estimate.cycles;

  std::printf("\nIPC error       %+.2f%%  [%s] (tolerance 3%%)\n",
              100.0 * ipc_err, ipc_ok ? "PASS" : "FAIL");
  std::printf("run length      %llu committed  [%s] (floor 10M)\n",
              static_cast<unsigned long long>(full.committed),
              long_enough ? "PASS" : "FAIL");
  std::printf("determinism     serial == sharded  [%s] (bit-for-bit)\n",
              deterministic ? "PASS" : "FAIL");
  std::printf("sampled speedup %.1fx over full detail  (measured, not gated)\n",
              speedup);
  std::printf("shard speedup   %.1fx on %u threads, %u cores  (measured, not "
              "gated)\n",
              shard_speedup, threads, hw);
  return ipc_ok && long_enough && deterministic ? 0 : 1;
}
