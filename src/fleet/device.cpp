#include "fleet/device.hpp"

#include <algorithm>

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
  sample_busy_ps.clear();
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

void DeviceProgress::end_slice(const SliceOutcome& out, SliceHistograms& bins) {
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
  sample_busy_ps.push_back(out.busy_ps);
  bins.add(out.busy_ps, r.slice_ps, out.energy_pj);

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
  std::optional<SliceHistograms> discard;
  SliceHistograms& bins =
      agg != nullptr ? agg->slice_bins : discard.emplace(fleet_.histograms);
  while (!p.done) p.end_slice(step(p, p.begin_slice(fleet_, spec_, slo_ok_)), bins);
  if (agg != nullptr) agg->add_finished_device(p);
  return p.result;
}

SliceOutcome Device::step(const DeviceProgress& p, bool tier_changed) {
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
  const sys::SliceStats s = proc_->run_slice(p.buffered);
  return SliceOutcome{.energy_pj = s.energy.as_pj(),
                      .busy_ps = s.busy_time.as_ps(),
                      .movement_ps = s.movement_time.as_ps(),
                      .host_cycles = s.host_cycles,
                      .deadline_violated = s.deadline_violated};
}

}  // namespace hhpim::fleet
