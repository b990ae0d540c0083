// Event-driven instrumentation probes (Instrumentation API v2).
//
// A Probe is an observer attached to a pipeline::Core before the run. The
// core emits typed events at the architectural points the paper's
// evaluation cares about — cycle ticks, rename/allocate/release, commit,
// squash, branch resolution, data-cache accesses — and the probe reacts:
// bumping its own StatRegistry entries, writing a trace, sampling a
// channel. Probes are pure observers: attaching any number of them never
// changes simulation results, and with no probe attached the emission sites
// compile down to a never-taken branch.
//
//   struct CommitCounter final : sim::Probe {
//     sim::StatRegistry::Counter* commits = nullptr;
//     void on_run_begin(const sim::SimConfig&, sim::StatRegistry& reg)
//         override {
//       commits = &reg.counter("my/commits");
//     }
//     void on_commit(const sim::CommitEvent&) override { ++*commits; }
//   };
//
//   CommitCounter probe;
//   auto core = sim::Simulator(config).make_core(program);
//   core->attach_probe(&probe);
//   sim::SimStats stats = core->run();
//
// Event-delivery order is deterministic: the core is single-threaded, so
// two runs of the same (config, program) produce bit-identical event
// sequences (pinned by tests/test_probe.cpp).
//
// Built-in probes: power::RixnerProbe (energy/ED² columns, src/power/),
// trace::CaptureProbe (binary commit traces, src/trace/capture.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "isa/isa.hpp"
#include "sim/stat_registry.hpp"

namespace erel::sim {

struct SimConfig;

/// End of one simulated cycle (all phases ran; `cycle` just finished).
struct CycleEvent {
  std::uint64_t cycle = 0;
};

/// One instruction renamed and dispatched — including wrong-path work (it
/// holds physical registers, the resource this paper studies). `inst` and
/// `rec` point into pipeline state and are valid during the callback only.
struct RenameEvent {
  core::InstSeq seq = 0;
  std::uint64_t pc = 0;
  const isa::DecodedInst* inst = nullptr;
  const core::RenameRec* rec = nullptr;
  std::uint64_t cycle = 0;
};

/// Physical-register lifecycle event (allocation or release). `reused`
/// marks the basic mechanism's in-place recycle: the release and the
/// allocation of the successor version arrive as a back-to-back pair that
/// never visits the free list.
struct RegEvent {
  core::RC cls = core::RC::Int;
  core::PhysReg reg = core::kNoReg;
  std::uint64_t cycle = 0;
  bool squashed = false;  // releases on the squash path
  bool reused = false;
};

/// One committed instruction, in program order. The POD prefix doubles as
/// the binary trace record (src/trace/); `inst` / `rec` are only set when
/// the event comes from a live core and are valid during the callback only.
struct CommitEvent {
  std::uint64_t seq = 0;
  std::uint64_t pc = 0;
  std::uint32_t encoding = 0;
  std::uint64_t dispatch_cycle = 0;
  std::uint64_t issue_cycle = 0;
  std::uint64_t complete_cycle = 0;
  std::uint64_t commit_cycle = 0;
  const isa::DecodedInst* inst = nullptr;
  const core::RenameRec* rec = nullptr;
};

/// Wrong-path work squashed: everything younger than `boundary` left the
/// pipeline (kNoSeq boundary = full flush on the exception path).
struct SquashEvent {
  core::InstSeq boundary = core::kNoSeq;
  std::uint64_t squashed_entries = 0;
  std::uint64_t cycle = 0;
};

/// A conditional branch or indirect jump resolved.
struct BranchEvent {
  std::uint64_t pc = 0;
  std::uint64_t target = 0;  // actual target
  bool is_cond = false;
  bool taken = false;
  bool mispredicted = false;
  std::uint64_t cycle = 0;
};

/// One memory access as issued to the cache hierarchy. D-side: loads at
/// issue, stores at commit. I-side (`is_ifetch`): one event per fetch block
/// line touched, mirroring how FetchUnit charges the I-cache. `latency` is
/// the hierarchy's answer, so hit level is recoverable from the configured
/// latencies.
struct CacheAccessEvent {
  std::uint64_t addr = 0;
  bool is_write = false;
  unsigned latency = 0;
  std::uint64_t cycle = 0;
  bool is_ifetch = false;
};

/// A named scalar a probe exports into experiment results (harness
/// ResultSet metric columns). Names are registry-style paths: no spaces.
struct Metric {
  std::string name;
  double value = 0.0;

  bool operator==(const Metric&) const = default;
};

class Probe {
 public:
  virtual ~Probe();

  /// Called once when the probe is attached; `registry` is the core's
  /// registry (alive for the whole run) — register counters/channels here.
  virtual void on_run_begin(const SimConfig& config, StatRegistry& registry);

  virtual void on_cycle(const CycleEvent&) {}
  virtual void on_rename(const RenameEvent&) {}
  virtual void on_reg_alloc(const RegEvent&) {}
  virtual void on_reg_release(const RegEvent&) {}
  virtual void on_commit(const CommitEvent&) {}
  virtual void on_squash(const SquashEvent&) {}
  virtual void on_branch_resolve(const BranchEvent&) {}
  virtual void on_cache_access(const CacheAccessEvent&) {}

  /// Called once at the end of Core::run(), after the registry is
  /// finalized (occupancy integrals, cache counters published).
  virtual void on_run_end(StatRegistry& registry);

  /// Appends named scalar columns for experiment sinks, derived from a
  /// final registry and the run's config. Keep this a pure function of its
  /// arguments (not of instance state): under sampled simulation each
  /// measurement window runs its own probe instance and the window
  /// registries merge, so the harness calls export_metrics on a fresh
  /// instance against the *merged* registry.
  virtual void export_metrics(const SimConfig& config,
                              const StatRegistry& registry,
                              std::vector<Metric>& out) const;
};

/// A named probe recipe for the experiment layer: the factory builds a
/// fresh instance per simulation (cells and sampling windows run
/// concurrently; instances are never shared). Factories must therefore
/// produce *self-contained* observers: instances that funnel into shared
/// mutable state (one TraceWriter, one output stream) race under sharded
/// sampling — accumulate into the run's StatRegistry instead, which merges
/// deterministically. The *name* keys the cell's result-cache fingerprint
/// — rename the probe when its exported metrics change meaning.
struct ProbeSpec {
  std::string name;
  std::function<std::unique_ptr<Probe>()> make;
};

}  // namespace erel::sim
