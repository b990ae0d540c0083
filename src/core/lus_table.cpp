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
  table_[logical] = LUsEntry{seq, kind};
}

void LUsTable::on_commit(InstSeq seq) {
  EREL_CHECK(seq > frontier_, "commit of seq ", seq, " at frontier ",
             frontier_);
  frontier_ = seq;
}

void LUsTable::reset_architectural() {
  table_.fill(LUsEntry{0, UseKind::Arch});
}

}  // namespace erel::core
