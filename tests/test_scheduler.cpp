// Event-driven issue scheduler: unit tests for the wakeup-list / ready-queue
// bookkeeping plus a bit-identity pin of whole-pipeline commit streams.
//
// The bit-identity table was captured from the pre-refactor core (full ROS
// readiness scan + unconditional completion-heap walk): all ten kernels at
// smoke scale (max_instructions = 20000) under conv/96 and extended/64,
// hashing every CommitEvent's seq/pc/encoding and all four stage cycles.
// The event-driven scheduler must observe operand readiness at the same
// instants the scan did, so the streams must match bit for bit. If this
// test fails, the scheduler changed simulated behavior; fix the regression,
// do not re-capture the table.
//
// The basic/64 rows came later: they were captured on commit 2e4aa73, the
// last tree whose LUs Table broadcast the C bit to every checkpoint copy and
// whose extended policy kept a level-based Release Queue, with this test's
// own HashProbe and config, before either structure was replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/harness.hpp"
#include "pipeline/core.hpp"
#include "pipeline/scheduler.hpp"
#include "sim/probe.hpp"
#include "workloads/workloads.hpp"

namespace erel {
namespace {

using core::RC;
using pipeline::CompletionQueue;
using pipeline::IssueScheduler;
using pipeline::SchedTag;

std::vector<std::uint64_t> seqs(const std::vector<SchedTag>& tags) {
  std::vector<std::uint64_t> out;
  out.reserve(tags.size());
  for (const SchedTag& t : tags) out.push_back(t.seq);
  return out;
}

TEST(IssueScheduler, MultiConsumerWakeDeliversAllInParkOrder) {
  IssueScheduler sched(8, 8);
  // Three consumers of int p3, parked out of seq order; one bystander on
  // fp p3 that the wake must not touch.
  sched.park(RC::Int, 3, {7, 107});
  sched.park(RC::Int, 3, {5, 105});
  sched.park(RC::Int, 3, {9, 109});
  sched.park(RC::Fp, 3, {6, 106});
  EXPECT_EQ(sched.waiter_count(), 4u);
  EXPECT_EQ(sched.waiter_count(RC::Int, 3), 3u);

  std::vector<SchedTag> woken;
  sched.wake(RC::Int, 3, woken);
  EXPECT_EQ(seqs(woken), (std::vector<std::uint64_t>{7, 5, 9}));
  EXPECT_EQ(sched.waiter_count(RC::Int, 3), 0u);
  EXPECT_EQ(sched.waiter_count(RC::Fp, 3), 1u);

  // The list is consumed: a second wake of the same register is a no-op.
  woken.clear();
  sched.wake(RC::Int, 3, woken);
  EXPECT_TRUE(woken.empty());
}

TEST(IssueScheduler, SquashRemovesPendingWakeupsAndReadyTags) {
  IssueScheduler sched(8, 8);
  sched.park(RC::Int, 1, {4, 104});   // survives (seq <= boundary)
  sched.park(RC::Int, 1, {12, 112});  // squashed
  sched.park(RC::Fp, 2, {15, 115});   // squashed
  sched.make_ready({3, 103});         // survives
  sched.make_ready({11, 111});        // squashed

  sched.squash_after(/*boundary=*/10);

  EXPECT_EQ(sched.waiter_count(), 1u);
  EXPECT_EQ(sched.waiter_count(RC::Int, 1), 1u);
  EXPECT_EQ(sched.waiter_count(RC::Fp, 2), 0u);
  EXPECT_EQ(seqs(sched.ready()), (std::vector<std::uint64_t>{3}));

  // The surviving waiter still wakes; the squashed one never reappears.
  std::vector<SchedTag> woken;
  sched.wake(RC::Int, 1, woken);
  EXPECT_EQ(seqs(woken), (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(woken.front().uid, 104u);
}

TEST(IssueScheduler, ClearDropsEverything) {
  IssueScheduler sched(4, 4);
  sched.park(RC::Int, 0, {1, 101});
  sched.park(RC::Fp, 3, {2, 102});
  sched.make_ready({3, 103});
  sched.clear();
  EXPECT_EQ(sched.waiter_count(), 0u);
  EXPECT_EQ(sched.ready_count(), 0u);
  std::vector<SchedTag> woken;
  sched.wake(RC::Int, 0, woken);
  sched.wake(RC::Fp, 3, woken);
  EXPECT_TRUE(woken.empty());
}

TEST(CompletionQueue, ZeroLatencyProducerIsDueInItsOwnCycle) {
  // A producer whose completion is scheduled for the current cycle must be
  // observable in that same cycle's writeback: the paper's zero-detect /
  // forwarding cases rely on consumers waking without a dead cycle.
  CompletionQueue cq;
  EXPECT_FALSE(cq.has_due(0));
  EXPECT_FALSE(cq.has_due(~std::uint64_t{0} - 1));

  cq.schedule(/*cycle=*/5, /*seq=*/1, /*uid=*/11);
  EXPECT_FALSE(cq.has_due(4));
  EXPECT_TRUE(cq.has_due(5));

  // Same-cycle schedule while another event is pending further out.
  cq.schedule(/*cycle=*/9, /*seq=*/2, /*uid=*/12);
  cq.schedule(/*cycle=*/5, /*seq=*/3, /*uid=*/13);
  EXPECT_TRUE(cq.has_due(5));

  // Draining cycle 5 delivers both due events before the gate closes.
  std::vector<std::uint64_t> due;
  while (cq.has_due(5)) due.push_back(cq.pop().seq);
  EXPECT_EQ(due.size(), 2u);
  EXPECT_FALSE(cq.has_due(8));
  EXPECT_TRUE(cq.has_due(9));
  EXPECT_EQ(cq.pop().seq, 2u);
  EXPECT_TRUE(cq.empty());
  EXPECT_FALSE(cq.has_due(~std::uint64_t{0} - 1));
}

// ---------------------------------------------------------------------------
// Whole-pipeline commit-stream bit-identity against the pre-refactor core.

struct HashProbe final : sim::Probe {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void on_commit(const sim::CommitEvent& ev) override {
    mix(ev.seq);
    mix(ev.pc);
    mix(ev.encoding);
    mix(ev.dispatch_cycle);
    mix(ev.issue_cycle);
    mix(ev.complete_cycle);
    mix(ev.commit_cycle);
  }
};

struct GoldenStream {
  const char* workload;
  const char* policy;
  unsigned phys;
  std::uint64_t hash;
};

// Captured from the pre-refactor (full-scan) core; see file comment.
const GoldenStream kGoldenStreams[] = {
    {"compress", "conv", 96, 0x944c412864024246ull},
    {"compress", "extended", 64, 0x7be26f4ba0bd5666ull},
    {"gcc", "conv", 96, 0xb959d846ad571238ull},
    {"gcc", "extended", 64, 0x27b74d9f9cd5bd7aull},
    {"go", "conv", 96, 0x6b87c3e96406208aull},
    {"go", "extended", 64, 0xacd5c9956b720094ull},
    {"li", "conv", 96, 0x07632a5e58868b50ull},
    {"li", "extended", 64, 0x0b7de0e1df29d6bfull},
    {"perl", "conv", 96, 0x61f636eff699ec9eull},
    {"perl", "extended", 64, 0x3c0bcfe584173e2bull},
    {"mgrid", "conv", 96, 0x41a51fe21b8c23f8ull},
    {"mgrid", "extended", 64, 0x7ae35d0e483cbf3aull},
    {"tomcatv", "conv", 96, 0x74bbd7f9806a284full},
    {"tomcatv", "extended", 64, 0xa9726926dd605d31ull},
    {"applu", "conv", 96, 0xfcc515b2b38b01edull},
    {"applu", "extended", 64, 0xc76db8bb566ac547ull},
    {"swim", "conv", 96, 0x3393f48c3cd63eadull},
    {"swim", "extended", 64, 0xed1696fccce2daabull},
    {"hydro2d", "conv", 96, 0x6ae3b01d9469e3a2ull},
    {"hydro2d", "extended", 64, 0xebf9406e5c5caf28ull},
    // basic/64: captured later; see the file comment.
    {"compress", "basic", 64, 0xeacf9bc092db81e5ull},
    {"gcc", "basic", 64, 0xf901e572f8b77ceeull},
    {"go", "basic", 64, 0x00e2b3abc1a937e3ull},
    {"li", "basic", 64, 0xce9068edef97fae1ull},
    {"perl", "basic", 64, 0x19992b294bd63e02ull},
    {"mgrid", "basic", 64, 0x7ae35d0e483cbf3aull},
    {"tomcatv", "basic", 64, 0xa9726926dd605d31ull},
    {"applu", "basic", 64, 0xd25ce0c7f901de78ull},
    {"swim", "basic", 64, 0xed1696fccce2daabull},
    {"hydro2d", "basic", 64, 0xebf9406e5c5caf28ull},
};

TEST(CommitStreamBitIdentity, MatchesPreRefactorCore) {
  for (const GoldenStream& g : kGoldenStreams) {
    const arch::Program program = workloads::assemble_workload(g.workload);
    sim::SimConfig config =
        harness::experiment_config(core::parse_policy(g.policy), g.phys);
    config.max_instructions = 20'000;
    HashProbe probe;
    pipeline::Core core(config, program);
    core.attach_probe(&probe);
    (void)core.run();
    EXPECT_EQ(probe.h, g.hash)
        << g.workload << "/" << g.policy << "/" << g.phys
        << ": commit stream diverged from the pre-refactor core";
  }
}

}  // namespace
}  // namespace erel
