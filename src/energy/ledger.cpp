#include "energy/ledger.hpp"

#include <cassert>
#include <sstream>

#include "common/table.hpp"

namespace hhpim::energy {

const char* to_string(Activity a) {
  switch (a) {
    case Activity::kMemRead: return "mem-read";
    case Activity::kMemWrite: return "mem-write";
    case Activity::kCompute: return "compute";
    case Activity::kTransfer: return "transfer";
    case Activity::kControl: return "control";
    case Activity::kLeakage: return "leakage";
    case Activity::kCount: break;
  }
  return "?";
}

ComponentId EnergyLedger::register_component(std::string name) {
  names_.push_back(std::move(name));
  pj_.resize(names_.size() * kActivities, 0.0);
  return ComponentId{static_cast<std::uint32_t>(names_.size() - 1)};
}

void EnergyLedger::add(ComponentId c, Activity a, Energy e) {
  assert(c.valid() && c.idx_ < names_.size());
  const std::size_t cell = c.idx_ * kActivities + static_cast<std::size_t>(a);
  pj_[cell] += e.as_pj();
  window_pj_ += e.as_pj();
  if (record_ != nullptr || capture_ != nullptr) [[unlikely]] {
    log_post({static_cast<std::uint32_t>(cell), e.as_pj()});
  }
}

void EnergyLedger::log_post(const RecordedPost& post) {
  if (record_ != nullptr) record_->push_back(post);
  if (capture_ != nullptr) capture_->add(post);
}

void EnergyLedger::replay(const std::vector<RecordedPost>& posts, int repeats) {
  for (int r = 0; r < repeats; ++r) {
    for (const RecordedPost& p : posts) {
      assert(p.cell < pj_.size());
      pj_[p.cell] += p.pj;
      window_pj_ += p.pj;
    }
  }
  if (capture_ != nullptr && repeats > 0) capture_->add_repeated(posts, repeats);
}

void EnergyLedger::apply(std::span<double> cells, const PostLog& log) {
  for (const PostLog::Run& run : log.runs) {
    const std::span<const RecordedPost> seq{log.posts.data() + run.begin,
                                            log.posts.data() + run.end};
    for (int t = 0; t < run.times; ++t) {
      for (const RecordedPost& p : seq) {
        assert(p.cell < cells.size());
        cells[p.cell] += p.pj;
      }
    }
  }
}

Energy EnergyLedger::cells_total(std::span<const double> cells) {
  double sum = 0.0;
  for (const double v : cells) sum += v;
  return Energy::pj(sum);
}

Energy EnergyLedger::cells_total(std::span<const double> cells, Activity a) {
  double sum = 0.0;
  for (std::size_t i = static_cast<std::size_t>(a); i < cells.size(); i += kActivities) {
    sum += cells[i];
  }
  return Energy::pj(sum);
}

Energy EnergyLedger::total() const { return cells_total(pj_); }

Energy EnergyLedger::total(Activity a) const { return cells_total(pj_, a); }

Energy EnergyLedger::component_total(ComponentId c) const {
  assert(c.valid());
  double sum = 0.0;
  for (std::size_t a = 0; a < kActivities; ++a) sum += pj_[c.idx_ * kActivities + a];
  return Energy::pj(sum);
}

Energy EnergyLedger::component_total(ComponentId c, Activity a) const {
  assert(c.valid());
  return Energy::pj(pj_[c.idx_ * kActivities + static_cast<std::size_t>(a)]);
}

Energy EnergyLedger::dynamic_total() const {
  return total() - total(Activity::kLeakage);
}

Energy EnergyLedger::component_total_by_index(std::size_t idx, Activity a) const {
  return Energy::pj(pj_[idx * kActivities + static_cast<std::size_t>(a)]);
}

std::string EnergyLedger::breakdown() const {
  Table t{{"component", "mem-read", "mem-write", "compute", "transfer",
           "control", "leakage", "total"}};
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::vector<std::string> row{names_[i]};
    double total = 0.0;
    for (std::size_t a = 0; a < kActivities; ++a) {
      const double v = pj_[i * kActivities + a];
      total += v;
      row.push_back(Energy::pj(v).to_string());
    }
    row.push_back(Energy::pj(total).to_string());
    t.add_row(std::move(row));
  }
  t.add_rule();
  t.add_row({"TOTAL", total(Activity::kMemRead).to_string(),
             total(Activity::kMemWrite).to_string(),
             total(Activity::kCompute).to_string(),
             total(Activity::kTransfer).to_string(),
             total(Activity::kControl).to_string(),
             total(Activity::kLeakage).to_string(), total().to_string()});
  return t.render();
}

void EnergyLedger::reset() {
  std::fill(pj_.begin(), pj_.end(), 0.0);
  window_pj_ = 0.0;
}

LeakageTracker::LeakageTracker(EnergyLedger* ledger, ComponentId id, Power leakage)
    : ledger_(ledger), id_(id), leakage_(leakage) {}

void LeakageTracker::power_on(Time now) {
  if (on_) return;
  on_ = true;
  on_since_ = now;
}

void LeakageTracker::power_off(Time now) {
  if (!on_) return;
  const Time span = now - on_since_;
  total_on_ += span;
  if (ledger_ != nullptr) ledger_->add_leakage(id_, leakage_, span);
  on_ = false;
}

void LeakageTracker::settle(Time now) {
  if (!on_) return;
  const Time span = now - on_since_;
  total_on_ += span;
  if (ledger_ != nullptr) ledger_->add_leakage(id_, leakage_, span);
  on_since_ = now;
}

void LeakageTracker::set_power(Power leakage, Time now) {
  settle(now);
  leakage_ = leakage;
}

}  // namespace hhpim::energy
