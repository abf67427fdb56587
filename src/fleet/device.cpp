#include "fleet/device.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

#include "energy/battery.hpp"
#include "fleet/aggregate.hpp"
#include "hhpim/scheduler.hpp"
#include "placement/pareto.hpp"

namespace hhpim::fleet {

sys::SystemConfig Device::device_config(const FleetSpec& fleet,
                                        const DeviceSpec& spec,
                                        placement::LutCache* lut_cache) {
  sys::SystemConfig c = fleet.resolved_firmware()[spec.firmware_index];
  // The spec's own lut_cache is rejected by FleetSpec::validate(); the
  // simulator's resolved cache (may be null = private builds) is the only
  // one devices ever see, so its key probe covers every build.
  c.lut_cache = lut_cache;
  return c;
}

sys::SystemConfig Device::device_config(const FleetSpec& fleet,
                                        placement::LutCache* lut_cache) {
  sys::SystemConfig c = fleet.config;
  c.lut_cache = lut_cache;
  return c;
}

Device::Device(const FleetSpec& fleet, const DeviceSpec& spec,
               const nn::Model& model, placement::LutCache* lut_cache)
    : fleet_(fleet),
      spec_(spec),
      model_(model),
      owned_(std::in_place, device_config(fleet, spec, lut_cache), model),
      proc_(&*owned_),
      low_power_alloc_(fleet.adapt
                           ? sys::balanced_mram_split(proc_->cost_model(),
                                                      proc_->total_weights())
                           : placement::Allocation{}) {
  init_slo_tiers();
}

Device::Device(const FleetSpec& fleet, const DeviceSpec& spec,
               const nn::Model& model, sys::Processor& proc)
    : fleet_(fleet),
      spec_(spec),
      model_(model),
      proc_(&proc),
      low_power_alloc_(fleet.adapt
                           ? sys::balanced_mram_split(proc_->cost_model(),
                                                      proc_->total_weights())
                           : placement::Allocation{}) {
  init_slo_tiers();
}

bool Device::slo_active(const placement::AllocationLut* lut, std::int64_t slo_ps) {
  // validate() rejects non-HH-PIM SLO fleets; a null LUT only means no SLO.
  if (slo_ps <= 0 || lut == nullptr) return false;
  // lookup_or_peak returns only feasible entries, so no frontier is read.
  return lut->lookup_or_peak(Time::ps(slo_ps)) != nullptr;
}

void Device::init_slo_tiers() {
  const placement::AllocationLut* lut = proc_->lut();
  if (!slo_active(lut, spec_.latency_slo_ps)) return;
  const placement::LutEntry* entry =
      lut->lookup_or_peak(Time::ps(spec_.latency_slo_ps));
  // kBalanced: the entry's anchor — min energy subject to the SLO (the
  // legacy knapsack answer for this constraint, bit-exact).
  slo_allocs_[static_cast<std::size_t>(FrontierTier::kBalanced)] = entry->alloc;
  // kPerformance: the fastest point on the same frontier (the only tier
  // that reads one; the LUT builds it on the entry's first read).
  slo_allocs_[static_cast<std::size_t>(FrontierTier::kPerformance)] =
      placement::min_latency_point(lut->frontier(*entry)).alloc;
  // kSaver: min energy outright — the most relaxed entry's anchor (feasibility
  // is monotone in t_constraint, so the last entry is feasible whenever any
  // is). Deliberately waives the SLO: the battery is dying.
  slo_allocs_[static_cast<std::size_t>(FrontierTier::kSaver)] =
      lut->entries().back().alloc;
  slo_ok_ = true;
}

std::size_t BusyColumn::Index::home(std::int64_t value) {
  // A multiplicative hash's top bits.
  return static_cast<std::size_t>((static_cast<std::uint64_t>(value) * 0x9e3779b97f4a7c15ULL) >>
                                  (64 - std::countr_zero(kSlots)));
}

void BusyColumn::Index::bind(const BusyColumn& column) {
  codes_.fill(kSpill);
  for (std::size_t c = 0; c < column.values_.size(); ++c) {
    insert(column.values_[c], static_cast<std::uint8_t>(c));
  }
}

std::uint8_t BusyColumn::Index::find(std::int64_t value) const {
  for (std::size_t s = home(value);; s = (s + 1) % kSlots) {
    if (codes_[s] == kSpill || values_[s] == value) return codes_[s];
  }
}

void BusyColumn::Index::insert(std::int64_t value, std::uint8_t code) {
  std::size_t s = home(value);
  while (codes_[s] != kSpill) s = (s + 1) % kSlots;
  values_[s] = value;
  codes_[s] = code;
}

void BusyColumn::push(std::int64_t busy_ps, Index& index) {
  std::uint8_t code = index.find(busy_ps);
  if (code == kSpill && values_.size() < kSpill) {
    code = static_cast<std::uint8_t>(values_.size());
    values_.push_back(busy_ps);
    index.insert(busy_ps, code);
  } else if (code == kSpill) {
    spill_.push_back(busy_ps);
  }
  codes_.push_back(code);
}

void BusyColumn::clear() {
  values_.clear();
  codes_.clear();
  spill_.clear();
}

void BusyColumn::check(std::size_t at) const {
  const auto refuse = [at](const std::string& what) {
    throw std::runtime_error("snapshot: the busy column at offset " + std::to_string(at) +
                             " " + what);
  };
  const std::size_t n = values_.size();
  if (n > kSpill) {
    refuse("holds " + std::to_string(n) + " values, more than " + std::to_string(kSpill));
  }
  // Duplicates, without sorting: each value marks one bit of a 4096-bit
  // filter (a multiplicative hash), and only a value whose bit is already
  // set is compared with the values before it.
  std::array<std::uint64_t, 64> seen{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t v = values_[i];
    const std::uint64_t h = (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL) >> 52;
    std::uint64_t& word = seen[h >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (h & 63);
    if ((word & bit) != 0) {
      for (std::size_t j = 0; j < i; ++j) {
        if (values_[j] == v) refuse("holds the value " + std::to_string(v) + " twice");
      }
    }
    word |= bit;
  }
  // One branch-free pass over the codes; the refusal names the first bad one.
  const auto limit = static_cast<std::uint8_t>(n);  // n <= 255, checked above
  std::size_t spilled = 0;
  std::uint8_t past = 0;
  for (const std::uint8_t c : codes_) {
    spilled += static_cast<std::size_t>(c == kSpill);
    past |= static_cast<std::uint8_t>(static_cast<std::uint8_t>(c >= limit) &
                                      static_cast<std::uint8_t>(c != kSpill));
  }
  if (past != 0) {
    const auto bad = std::find_if(codes_.begin(), codes_.end(),
                                  [n](std::uint8_t c) { return c >= n && c != kSpill; });
    refuse("codes sample " + std::to_string(bad - codes_.begin()) + " as " +
           std::to_string(*bad) + ", past its " + std::to_string(n) + " values");
  }
  if (spilled != spill_.size()) {
    refuse("holds " + std::to_string(spill_.size()) + " spill values for " +
           std::to_string(spilled) + " spill codes");
  }
}

void DeviceProgress::start(const FleetSpec& fleet, const DeviceSpec& spec,
                           std::int64_t slice_ps, std::span<const double> env) {
  start_load_stream(spec, env, loads);
  const energy::Battery battery{fleet.battery};
  // Lifecycle window: a device staying to the horizon runs its arrivals plus
  // the trailing drain slice; an early leaver runs its arrivals only.
  const bool has_drain = spec.leave_slice < 0 || spec.leave_slice >= fleet.slices;
  result = DeviceResult{};
  result.id = spec.id;
  result.model_index = static_cast<std::uint32_t>(spec.model_index);
  result.scenario = spec.scenario;
  result.seed = spec.seed;
  result.slice_ps = slice_ps;
  result.slices_total = loads.size() + (has_drain ? 1 : 0);
  result.battery_capacity_pj = battery.capacity().as_pj();
  result.latency_slo_ps = spec.latency_slo_ps;
  next_k = 0;
  started = true;
  done = result.slices_total == 0;
  mode = static_cast<std::uint8_t>(DeviceMode::kDynamic);
  switches = 0;
  tier = 255;
  buffered = 0;
  charge_pj = battery.charge().as_pj();
  result.final_soc = battery.soc();
  busy.clear();
  proc_blob.reset();
}

bool DeviceProgress::begin_slice(const FleetSpec& fleet, const DeviceSpec& spec,
                                 bool slo) {
  const ChargingSpec& ch = fleet.charging;
  if (ch.period > 0 && ch.window > 0 &&
      (spec.join_slice + next_k) % ch.period < ch.window) {
    // Global charging window, applied before the policy observes the SoC
    // (a device wakes into a charged state, it doesn't observe-then-charge).
    charge_pj += ch.energy_per_slice.as_pj();
    if (charge_pj > result.battery_capacity_pj) charge_pj = result.battery_capacity_pj;
  }
  if (!fleet.adapt && !slo) return false;
  // SLO-aware frontier policy: the hysteresis mode still advances (it feeds
  // kSaver and the JSONL mode fields), but the placement pinned is the
  // tier's frontier point, not the dynamic/MRAM toggle. Without adaptation
  // there is no SoC signal — an SLO device holds kBalanced.
  FrontierTier t = FrontierTier::kBalanced;
  if (fleet.adapt) {
    const double soc = charge_pj / result.battery_capacity_pj;
    const DeviceMode m =
        next_mode(static_cast<DeviceMode>(mode), soc, fleet.thresholds, switches);
    mode = static_cast<std::uint8_t>(m);
    if (slo) t = select_tier(m, soc, fleet.thresholds);
  }
  if (!slo || static_cast<std::uint8_t>(t) == tier) return false;
  if (tier != 255) ++result.tier_switches;
  tier = static_cast<std::uint8_t>(t);
  return true;
}

SliceKey DeviceProgress::slice_key(std::int64_t slo_ps) const {
  return SliceKey{slo_ps, static_cast<std::uint32_t>(buffered), mode,
                  slo_ps > 0 ? tier : std::uint8_t{0}};
}

void DeviceProgress::end_slice(const SliceOutcome& out, FleetAggregate& agg,
                               BusyColumn::Index* busy_index) {
  const int n_loads = loads.size();
  const int arriving = next_k < n_loads ? loads.next() : 0;
  const double drained = out.energy_pj < charge_pj ? out.energy_pj : charge_pj;
  charge_pj -= drained;

  DeviceResult& r = result;
  ++r.slices_executed;
  r.tasks += static_cast<std::uint64_t>(buffered);
  r.deadline_violations += out.deadline_violated ? 1 : 0;
  r.energy_pj += drained;
  r.busy_time_ps += out.busy_ps;
  r.max_busy_ps = std::max(r.max_busy_ps, out.busy_ps);
  r.movement_time_ps += out.movement_ps;
  r.host_cycles += out.host_cycles;
  if (mode == static_cast<std::uint8_t>(DeviceMode::kLowPower)) ++r.low_power_slices;
  if (busy_index == nullptr) {
    agg.add_busy(out.busy_ps);
  } else {
    busy.push(out.busy_ps, *busy_index);
  }
  agg.slice_bins.add(out.busy_ps, r.slice_ps, out.energy_pj);

  if (drained < out.energy_pj) {
    // The battery died during this slice: the slice's work happened (the
    // device browns out at the boundary, not instantaneously), but nothing
    // after it runs. Arrivals still in flight are dropped.
    r.exhausted_at_slice = next_k;
    std::uint64_t dropped = static_cast<std::uint64_t>(arriving);
    while (!loads.done()) dropped += static_cast<std::uint64_t>(loads.next());
    r.tasks_dropped = dropped;
    done = true;
  }
  buffered = arriving;
  ++next_k;
  if (!done && next_k >= r.slices_total) {
    done = true;
    if (r.slices_total == n_loads) {
      // Early leaver: its final buffer never gets a drain slice — those
      // arrivals are dropped exactly like exhaustion drops in-flight work.
      r.tasks_dropped += static_cast<std::uint64_t>(buffered);
    }
  }
  r.mode_switches = switches;
  r.final_soc = charge_pj / r.battery_capacity_pj;
}

DeviceResult Device::run(FleetAggregate* agg) {
  const std::vector<double> env = fleet_.envelope_multipliers();
  DeviceProgress p;
  p.start(fleet_, spec_, proc_->slice_length().as_ps(), env);
  std::optional<FleetAggregate> discard;
  FleetAggregate& a = agg != nullptr ? *agg : discard.emplace(fleet_.histograms);
  // One segment to completion: each slice's busy time feeds busy_us as it
  // runs, so no busy column is held.
  while (!p.done) {
    place(p, p.begin_slice(fleet_, spec_, slo_ok_));
    p.end_slice(SliceOutcome::of(proc_->run_slice(p.buffered)), a, nullptr);
  }
  a.add_device(p.result);
  return p.result;
}

void Device::place(const DeviceProgress& p, bool tier_changed) {
  if (tier_changed) {
    proc_->set_placement_override(slo_allocs_[p.tier]);
  } else if (!slo_ok_ && fleet_.adapt) {
    const bool low = p.mode == static_cast<std::uint8_t>(DeviceMode::kLowPower);
    if (low && !proc_->placement_override_active()) {
      proc_->set_placement_override(low_power_alloc_);
    } else if (!low && proc_->placement_override_active()) {
      proc_->set_placement_override(std::nullopt);
    }
  }
}

}  // namespace hhpim::fleet
