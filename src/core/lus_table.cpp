#include "core/lus_table.hpp"

#include "common/log.hpp"

namespace erel::core {

const LUsEntry& LUsTable::lookup(unsigned logical) const {
  EREL_CHECK(logical < isa::kNumLogicalRegs);
  return table_[logical];
}

void LUsTable::record_use(unsigned logical, InstSeq seq, UseKind kind) {
  EREL_CHECK(logical < isa::kNumLogicalRegs);
  EREL_CHECK(kind != UseKind::Arch);
  undo_.push_back({seq, table_[logical], static_cast<std::uint8_t>(logical)});
  table_[logical] = LUsEntry{seq, kind};
}

void LUsTable::on_commit(InstSeq seq) {
  EREL_CHECK(seq > frontier_, "commit of seq ", seq, " at frontier ",
             frontier_);
  frontier_ = seq;
  while (!undo_.empty() && undo_.front().seq <= seq) undo_.pop_front();
}

void LUsTable::squash_after(InstSeq branch_seq) {
  while (!undo_.empty() && undo_.back().seq > branch_seq) {
    table_[undo_.back().logical] = undo_.back().previous;
    undo_.pop_back();
  }
}

void LUsTable::reset_architectural() {
  table_.fill(LUsEntry{0, UseKind::Arch});
  undo_.clear();
}

}  // namespace erel::core
