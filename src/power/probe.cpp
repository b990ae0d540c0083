#include "power/probe.hpp"

#include "sim/config.hpp"

namespace erel::power {

namespace {

constexpr std::string_view kReadsInt = "power/rf_reads/int";
constexpr std::string_view kReadsFp = "power/rf_reads/fp";
constexpr std::string_view kWritesInt = "power/rf_writes/int";
constexpr std::string_view kWritesFp = "power/rf_writes/fp";
constexpr std::string_view kLusAccesses = "power/lus_accesses";

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
  uses_lus_table_ = config.policy != core::PolicyKind::Conventional;
  reads_[0] = &registry.counter(kReadsInt);
  reads_[1] = &registry.counter(kReadsFp);
  writes_[0] = &registry.counter(kWritesInt);
  writes_[1] = &registry.counter(kWritesFp);
  lus_accesses_ = &registry.counter(kLusAccesses);
}

void RixnerProbe::on_commit(const sim::CommitEvent& event) {
  const core::RenameRec& rec = *event.rec;
  if (rec.c1 != isa::RegClass::None)
    ++*reads_[static_cast<unsigned>(core::rc_from(rec.c1))];
  if (rec.c2 != isa::RegClass::None)
    ++*reads_[static_cast<unsigned>(core::rc_from(rec.c2))];
  if (rec.has_dst())
    ++*writes_[static_cast<unsigned>(core::rc_from(rec.cd))];
  // One LUs Table recording per register operand (src lookups update the
  // last-use entry; the destination write starts the new version's entry).
  if (uses_lus_table_)
    *lus_accesses_ += (rec.c1 != isa::RegClass::None) +
                      (rec.c2 != isa::RegClass::None) + rec.has_dst();
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
