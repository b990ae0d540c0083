#include "power/probe.hpp"

#include "sim/config.hpp"

namespace erel::power {

namespace {

constexpr std::string_view kReadsInt = "power/rf_reads/int";
constexpr std::string_view kReadsFp = "power/rf_reads/fp";
constexpr std::string_view kWritesInt = "power/rf_writes/int";
constexpr std::string_view kWritesFp = "power/rf_writes/fp";
constexpr std::string_view kLusAccesses = "power/lus_accesses";
constexpr std::string_view kWrongpathRenames = "power/wrongpath_renames";
constexpr std::string_view kWrongpathReadsInt = "power/wrongpath_rf_reads/int";
constexpr std::string_view kWrongpathReadsFp = "power/wrongpath_rf_reads/fp";
constexpr std::string_view kWrongpathWritesInt =
    "power/wrongpath_rf_writes/int";
constexpr std::string_view kWrongpathWritesFp = "power/wrongpath_rf_writes/fp";
constexpr std::string_view kWrongpathLus = "power/wrongpath_lus_accesses";

void compute(const RixnerModel& model, unsigned phys_int, unsigned phys_fp,
             std::uint64_t reads_int, std::uint64_t writes_int,
             std::uint64_t reads_fp, std::uint64_t writes_fp,
             std::uint64_t lus, std::uint64_t cycles,
             std::vector<sim::Metric>& out) {
  const double e_int = model.energy_pj(RixnerModel::int_file(phys_int));
  const double e_fp = model.energy_pj(RixnerModel::fp_file(phys_fp));
  const double e_lus = model.energy_pj(RixnerModel::lus_table());
  const double energy_nj =
      (static_cast<double>(reads_int + writes_int) * e_int +
       static_cast<double>(reads_fp + writes_fp) * e_fp +
       static_cast<double>(lus) * e_lus) /
      1000.0;
  const double t = static_cast<double>(cycles);
  out.push_back({"power/energy_nj", energy_nj});
  out.push_back({"power/ed2", energy_nj * t * t});
}

}  // namespace

void RixnerProbe::on_run_begin(const sim::SimConfig& config,
                               sim::StatRegistry& registry) {
  // A custom policy_factory is opaque; assume no LUs Table rather than
  // charging unknown machinery.
  uses_lus_table_ = !config.policy_factory &&
                    config.policy != core::PolicyKind::Conventional;
  reads_[0] = &registry.counter(kReadsInt);
  reads_[1] = &registry.counter(kReadsFp);
  writes_[0] = &registry.counter(kWritesInt);
  writes_[1] = &registry.counter(kWritesFp);
  lus_accesses_ = &registry.counter(kLusAccesses);
  wrongpath_renames_ = &registry.counter(kWrongpathRenames);
  wrongpath_reads_[0] = &registry.counter(kWrongpathReadsInt);
  wrongpath_reads_[1] = &registry.counter(kWrongpathReadsFp);
  wrongpath_writes_[0] = &registry.counter(kWrongpathWritesInt);
  wrongpath_writes_[1] = &registry.counter(kWrongpathWritesFp);
  wrongpath_lus_ = &registry.counter(kWrongpathLus);
  inflight_.clear();
}

std::uint8_t RixnerProbe::lus_recordings(const core::RenameRec& rec) const {
  // One LUs Table recording per register operand (src lookups update the
  // last-use entry; the destination write starts the new version's entry).
  if (!uses_lus_table_) return 0;
  return static_cast<std::uint8_t>((rec.c1 != isa::RegClass::None) +
                                   (rec.c2 != isa::RegClass::None) +
                                   rec.has_dst());
}

void RixnerProbe::on_rename(const sim::RenameEvent& event) {
  // Held only for the wrong-path counters: the headline counters are
  // charged at commit.
  const core::RenameRec& rec = *event.rec;
  Inflight f;
  f.seq = event.seq;
  if (rec.c1 != isa::RegClass::None)
    ++f.reads[static_cast<unsigned>(core::rc_from(rec.c1))];
  if (rec.c2 != isa::RegClass::None)
    ++f.reads[static_cast<unsigned>(core::rc_from(rec.c2))];
  if (rec.has_dst()) ++f.writes[static_cast<unsigned>(core::rc_from(rec.cd))];
  f.lus = lus_recordings(rec);
  inflight_.push_back(f);
}

void RixnerProbe::on_commit(const sim::CommitEvent& event) {
  const core::RenameRec& rec = *event.rec;
  if (rec.c1 != isa::RegClass::None)
    ++*reads_[static_cast<unsigned>(core::rc_from(rec.c1))];
  if (rec.c2 != isa::RegClass::None)
    ++*reads_[static_cast<unsigned>(core::rc_from(rec.c2))];
  if (rec.has_dst())
    ++*writes_[static_cast<unsigned>(core::rc_from(rec.cd))];
  *lus_accesses_ += lus_recordings(rec);
  // Commits retire the oldest in-flight record (squashes only ever remove
  // from the young end, so the front is always this instruction).
  if (!inflight_.empty() && inflight_.front().seq == event.seq)
    inflight_.pop_front();
}

void RixnerProbe::on_squash(const sim::SquashEvent& event) {
  // Everything younger than the boundary (all of it on a full exception /
  // IRET flush, boundary == kNoSeq) was renamed — and its operands read,
  // results written, LUs entries recorded — for nothing. Fold those
  // prospective accesses into the wrong-path counters.
  while (!inflight_.empty() &&
         (event.boundary == core::kNoSeq ||
          inflight_.back().seq > event.boundary)) {
    const Inflight& f = inflight_.back();
    ++*wrongpath_renames_;
    *wrongpath_reads_[0] += f.reads[0];
    *wrongpath_reads_[1] += f.reads[1];
    *wrongpath_writes_[0] += f.writes[0];
    *wrongpath_writes_[1] += f.writes[1];
    *wrongpath_lus_ += f.lus;
    inflight_.pop_back();
  }
}

void RixnerProbe::export_metrics(const sim::SimConfig& config,
                                 const sim::StatRegistry& registry,
                                 std::vector<sim::Metric>& out) const {
  const RixnerModel model;
  compute(model, config.phys_int, config.phys_fp,
          registry.counter_value(kReadsInt),
          registry.counter_value(kWritesInt),
          registry.counter_value(kReadsFp),
          registry.counter_value(kWritesFp),
          registry.counter_value(kLusAccesses),
          registry.counter_value(sim::kStatCycles), out);
}

}  // namespace erel::power
