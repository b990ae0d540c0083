// LUs Table semantics (paper §3.1/§3.2): last-use recording, the C bit
// derived from the commit frontier (which checkpoint restores cannot move),
// architectural reset.
#include <gtest/gtest.h>

#include "core/lus_table.hpp"

namespace erel::core {
namespace {

TEST(LUsTable, InitialStateIsArchitecturalCommitted) {
  LUsTable t;
  for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
    EXPECT_EQ(t.lookup(r).kind, UseKind::Arch);
    EXPECT_EQ(t.lookup(r).seq, 0u);
    EXPECT_TRUE(t.committed(t.lookup(r).seq));
  }
}

TEST(LUsTable, RecordUseOverwritesInProgramOrder) {
  LUsTable t;
  t.record_use(4, 100, UseKind::Src1);
  t.record_use(4, 101, UseKind::Src2);
  t.record_use(4, 102, UseKind::Dst);
  const LUsEntry& e = t.lookup(4);
  EXPECT_EQ(e.seq, 102u);
  EXPECT_EQ(e.kind, UseKind::Dst);
  EXPECT_FALSE(t.committed(e.seq));
}

TEST(LUsTable, CommitFrontierSetsCUpToTheCommittedSeq) {
  LUsTable t;
  t.record_use(1, 100, UseKind::Src1);
  t.record_use(2, 100, UseKind::Src2);  // same instruction, two registers
  t.record_use(3, 101, UseKind::Dst);
  t.on_commit(100);
  EXPECT_TRUE(t.committed(t.lookup(1).seq));
  EXPECT_TRUE(t.committed(t.lookup(2).seq));
  EXPECT_FALSE(t.committed(t.lookup(3).seq));
  t.on_commit(101);
  EXPECT_TRUE(t.committed(t.lookup(3).seq));
}

TEST(LUsTable, RestoredCopySeesCommitsMadeAfterTheSnapshot) {
  LUsTable t;
  t.record_use(5, 200, UseKind::Src1);
  const LUsTable::Snapshot checkpoint = t.snapshot();
  t.record_use(5, 201, UseKind::Src1);  // younger use in the working copy
  t.on_commit(200);
  EXPECT_FALSE(t.committed(t.lookup(5).seq));  // working copy names 201
  // The paper sets C "in all LUs Table copies"; the frontier covers the
  // copy without touching it, and the restore leaves the frontier alone.
  t.restore(checkpoint);
  EXPECT_EQ(t.lookup(5).seq, 200u);
  EXPECT_TRUE(t.committed(t.lookup(5).seq));
}

TEST(LUsTable, RestoreBringsBackOlderLastUses) {
  LUsTable t;
  t.record_use(7, 300, UseKind::Dst);
  const LUsTable::Snapshot snap = t.snapshot();
  t.record_use(7, 350, UseKind::Src2);  // wrong-path use
  t.restore(snap);
  EXPECT_EQ(t.lookup(7).seq, 300u);
  EXPECT_EQ(t.lookup(7).kind, UseKind::Dst);
}

TEST(LUsTable, ResetArchitecturalClearsEverything) {
  LUsTable t;
  t.record_use(0, 1, UseKind::Src1);
  t.record_use(31, 2, UseKind::Dst);
  t.reset_architectural();
  EXPECT_EQ(t.lookup(0).kind, UseKind::Arch);
  EXPECT_TRUE(t.committed(t.lookup(31).seq));
}

TEST(LUsTable, RelBitMapping) {
  EXPECT_EQ(rel_bit_for(UseKind::Src1), kRel1);
  EXPECT_EQ(rel_bit_for(UseKind::Src2), kRel2);
  EXPECT_EQ(rel_bit_for(UseKind::Dst), kRelD);
  EXPECT_EQ(rel_bit_for(UseKind::Arch), 0);
}

TEST(LUsTableDeath, OutOfOrderCommitAborts) {
  LUsTable t;
  t.on_commit(10);
  EXPECT_DEATH(t.on_commit(10), "frontier");
  EXPECT_DEATH(t.on_commit(9), "frontier");
}

}  // namespace
}  // namespace erel::core
