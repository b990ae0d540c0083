// LUs Table semantics (paper §3.1/§3.2): last-use recording, the C bit
// derived from the commit frontier (which undoing cannot move), the undo
// list a mispredict unwinds, architectural reset.
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

TEST(LUsTable, UndoneEntrySeesCommitsMadeMeanwhile) {
  LUsTable t;
  t.record_use(5, 200, UseKind::Src1);
  t.record_use(5, 201, UseKind::Src1);  // younger, wrong-path use
  t.on_commit(200);
  EXPECT_FALSE(t.committed(t.lookup(5).seq));  // the table names 201
  // The paper sets C "in all LUs Table copies"; the frontier covers the
  // entry an undo puts back, and the undo leaves the frontier alone.
  t.squash_after(200);
  EXPECT_EQ(t.lookup(5).seq, 200u);
  EXPECT_TRUE(t.committed(t.lookup(5).seq));
}

TEST(LUsTable, CommitTrimsTheUndoListAndSquashUnwindsNewestFirst) {
  LUsTable t;
  t.record_use(1, 10, UseKind::Src1);
  t.record_use(2, 11, UseKind::Dst);
  EXPECT_EQ(t.undo_size(), 2u);
  t.on_commit(10);
  EXPECT_EQ(t.undo_size(), 1u);
  // add r1, r1, r1 at 12 records r1 three times.
  t.record_use(1, 12, UseKind::Src1);
  t.record_use(1, 12, UseKind::Src2);
  t.record_use(1, 12, UseKind::Dst);
  // Two younger instructions use r1 and r2 again.
  t.record_use(1, 13, UseKind::Src2);
  t.record_use(2, 13, UseKind::Dst);
  t.record_use(1, 14, UseKind::Dst);
  EXPECT_EQ(t.undo_size(), 7u);

  t.squash_after(12);  // undoes 14 and 13
  EXPECT_EQ(t.lookup(1).seq, 12u);
  EXPECT_EQ(t.lookup(1).kind, UseKind::Dst);
  EXPECT_EQ(t.lookup(2).seq, 11u);
  EXPECT_EQ(t.undo_size(), 4u);

  t.squash_after(11);  // undoes all three recordings of 12
  EXPECT_EQ(t.lookup(1).seq, 10u);
  EXPECT_EQ(t.lookup(1).kind, UseKind::Src1);
  EXPECT_EQ(t.undo_size(), 1u);

  // Committed recordings leave no undo record behind.
  t.on_commit(11);
  EXPECT_EQ(t.undo_size(), 0u);
  t.squash_after(10);
  EXPECT_EQ(t.lookup(2).seq, 11u);
  EXPECT_EQ(t.lookup(2).kind, UseKind::Dst);
}

TEST(LUsTable, ResetArchitecturalClearsEverything) {
  LUsTable t;
  t.record_use(0, 1, UseKind::Src1);
  t.record_use(31, 2, UseKind::Dst);
  t.reset_architectural();
  EXPECT_EQ(t.lookup(0).kind, UseKind::Arch);
  EXPECT_TRUE(t.committed(t.lookup(31).seq));
  EXPECT_EQ(t.undo_size(), 0u);
  t.squash_after(0);  // nothing left to undo
  EXPECT_EQ(t.lookup(31).kind, UseKind::Arch);
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
