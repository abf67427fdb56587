// Fleet-simulator suite: the battery model, SoC-threshold adaptation (exact
// threshold hits, exhaustion mid-run, zero-device fleets), spec expansion
// jitter, LUT fan-in across devices, and the SLO policy's tiers and
// schema. That a FleetSpec yields the same bytes at any thread
// count, memo setting or segmentation is the differential oracle's
// (test_oracle.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "energy/battery.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "fleet_cases.hpp"
#include "hhpim/scheduler.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"
#include "sim/stats.hpp"

namespace hhpim::fleet {
namespace {

using namespace hhpim::literals;

using cases::small_fleet;

// --- battery -----------------------------------------------------------------

TEST(Battery, DrainClampsAndReportsExhaustion) {
  energy::BatteryConfig cfg;
  cfg.capacity = Energy::pj(100.0);
  energy::Battery b{cfg};
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
  EXPECT_DOUBLE_EQ(b.drain(Energy::pj(40.0)).as_pj(), 40.0);
  EXPECT_DOUBLE_EQ(b.soc(), 0.6);
  EXPECT_FALSE(b.exhausted());
  // Requested > remaining: the drain truncates — the caller detects
  // died-mid-slice by drained < requested.
  EXPECT_DOUBLE_EQ(b.drain(Energy::pj(80.0)).as_pj(), 60.0);
  EXPECT_TRUE(b.exhausted());
  EXPECT_DOUBLE_EQ(b.drain(Energy::pj(1.0)).as_pj(), 0.0);
  b.recharge(Energy::pj(10.0));
  EXPECT_FALSE(b.exhausted());
  b.recharge(Energy::pj(1000.0));  // clamped to capacity
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
}

TEST(Battery, RejectsBadConfig) {
  energy::BatteryConfig zero;
  zero.capacity = Energy::zero();
  EXPECT_THROW(energy::Battery{zero}, std::invalid_argument);
  energy::BatteryConfig soc;
  soc.initial_soc = 1.5;
  EXPECT_THROW(energy::Battery{soc}, std::invalid_argument);
}

// --- adaptive policy ---------------------------------------------------------

TEST(AdaptivePolicy, HysteresisAndExactThresholds) {
  AdaptivePolicy p{{.low_soc = 0.3, .high_soc = 0.5}};
  EXPECT_EQ(p.update(1.0), DeviceMode::kDynamic);
  EXPECT_EQ(p.update(0.31), DeviceMode::kDynamic);
  // Exactly at the low threshold switches (<=).
  EXPECT_EQ(p.update(0.30), DeviceMode::kLowPower);
  EXPECT_EQ(p.switches(), 1u);
  // Inside the hysteresis band: stays low-power.
  EXPECT_EQ(p.update(0.45), DeviceMode::kLowPower);
  // Exactly at the high threshold switches back (>=).
  EXPECT_EQ(p.update(0.50), DeviceMode::kDynamic);
  EXPECT_EQ(p.switches(), 2u);
  EXPECT_EQ(p.update(0.49), DeviceMode::kDynamic);  // band is sticky both ways
}

TEST(AdaptivePolicy, RejectsBadThresholds) {
  EXPECT_THROW(AdaptivePolicy({.low_soc = 0.6, .high_soc = 0.4}),
               std::invalid_argument);
  EXPECT_THROW(AdaptivePolicy({.low_soc = -0.1, .high_soc = 0.4}),
               std::invalid_argument);
  EXPECT_THROW(AdaptivePolicy({.low_soc = 0.4, .high_soc = 1.1}),
               std::invalid_argument);
  EXPECT_NO_THROW(AdaptivePolicy({.low_soc = 0.4, .high_soc = 0.4}));
}

// --- histogram merge (the shard-aggregation primitive) -----------------------

TEST(HistogramMerge, ExactAcrossSplits) {
  sim::Histogram whole{0.0, 10.0, 10};
  sim::Histogram a{0.0, 10.0, 10};
  sim::Histogram b{0.0, 10.0, 10};
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>(i) * 0.13 - 1.0;  // incl. under/overflow
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), whole.total());
  EXPECT_EQ(a.underflow(), whole.underflow());
  EXPECT_EQ(a.overflow(), whole.overflow());
  for (std::size_t i = 0; i < whole.bins().size(); ++i) {
    EXPECT_EQ(a.bins()[i], whole.bins()[i]);
  }
  EXPECT_DOUBLE_EQ(a.quantile(0.5), whole.quantile(0.5));
}

TEST(HistogramMerge, ShapeMismatchThrows) {
  sim::Histogram a{0.0, 10.0, 10};
  sim::Histogram bins{0.0, 10.0, 20};
  sim::Histogram range{0.0, 5.0, 10};
  EXPECT_THROW(a.merge(bins), std::invalid_argument);
  EXPECT_THROW(a.merge(range), std::invalid_argument);
}

// --- spec expansion ----------------------------------------------------------

TEST(FleetSpec, ExpandIsDeterministicAndJittered) {
  const FleetSpec spec = small_fleet(32);
  const auto a = spec.expand();
  const auto b = spec.expand();
  ASSERT_EQ(a.size(), 32u);
  std::set<std::uint64_t> seeds;
  std::set<int> phases;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].phase, b[i].phase);
    EXPECT_EQ(static_cast<int>(a[i].scenario), static_cast<int>(b[i].scenario));
    seeds.insert(a[i].seed);
    phases.insert(a[i].phase);
  }
  // Jitter: seeds are (overwhelmingly) distinct, phases spread out.
  EXPECT_EQ(seeds.size(), 32u);
  EXPECT_GT(phases.size(), 1u);
}

TEST(FleetSpec, ValidationRejectsBadSpecs) {
  FleetSpec negative = small_fleet(-1);
  EXPECT_THROW(negative.validate(), std::invalid_argument);
  FleetSpec no_slices = small_fleet(4, 6);
  no_slices.slices = 0;
  EXPECT_THROW(no_slices.validate(), std::invalid_argument);
  FleetSpec trace_mix = small_fleet(4);
  trace_mix.mix = {workload::Scenario::kTrace};
  EXPECT_THROW(trace_mix.validate(), std::invalid_argument);
  // Adaptation requires MRAM + the dynamic policy.
  FleetSpec baseline = small_fleet(4);
  baseline.config.arch = sys::ArchConfig::baseline();
  EXPECT_THROW(baseline.validate(), std::invalid_argument);
  baseline.adapt = false;
  EXPECT_NO_THROW(baseline.validate());
  // ... and the low-power MRAM placement must actually fit every model
  // (rejected here, not from a worker thread mid-run).
  FleetSpec tiny_mram = small_fleet(4);
  tiny_mram.config.arch.mram_kb_per_module = 1;
  EXPECT_THROW(tiny_mram.validate(), std::invalid_argument);
  // The LUT cache is an execution concern (FleetOptions), never the spec's.
  FleetSpec preset_cache = small_fleet(4);
  placement::LutCache cache;
  preset_cache.config.lut_cache = &cache;
  EXPECT_THROW(preset_cache.validate(), std::invalid_argument);
}

/// Field-by-field DeviceSpec equality, the scenario config included.
void expect_same_device(const DeviceSpec& got, const DeviceSpec& want,
                        const std::string& where) {
  EXPECT_EQ(got.id, want.id) << where;
  EXPECT_EQ(got.model_index, want.model_index) << where;
  EXPECT_EQ(got.scenario, want.scenario) << where;
  EXPECT_EQ(got.phase, want.phase) << where;
  EXPECT_EQ(got.seed, want.seed) << where;
  EXPECT_EQ(got.firmware_index, want.firmware_index) << where;
  EXPECT_EQ(got.join_slice, want.join_slice) << where;
  EXPECT_EQ(got.leave_slice, want.leave_slice) << where;
  EXPECT_EQ(got.latency_slo_ps, want.latency_slo_ps) << where;
  const workload::ScenarioConfig& g = got.cfg;
  const workload::ScenarioConfig& w = want.cfg;
  EXPECT_EQ(g.slices, w.slices) << where;
  EXPECT_EQ(g.low, w.low) << where;
  EXPECT_EQ(g.high, w.high) << where;
  EXPECT_EQ(g.spike_period, w.spike_period) << where;
  EXPECT_EQ(g.spike_period_frequent, w.spike_period_frequent) << where;
  EXPECT_EQ(g.pulse_width, w.pulse_width) << where;
  EXPECT_EQ(g.seed, w.seed) << where;
  EXPECT_EQ(g.burst_period, w.burst_period) << where;
  EXPECT_EQ(g.burst_decay, w.burst_decay) << where;
  EXPECT_EQ(g.poisson_mean, w.poisson_mean) << where;
  EXPECT_EQ(g.trace_path, w.trace_path) << where;
  EXPECT_EQ(g.trace, w.trace) << where;
}

TEST(FleetSpec, ExpanderMatchesExpand) {
  // Seeded random specs: at(i) into a fresh spec, and into ONE spec reused
  // across every device in shuffled order, must both equal expand()[i] —
  // no join, leave, SLO or firmware field of a previous device may leak.
  SplitMix64 rng{0xe7a2d026ULL};
  const auto below = [&](int n) { return static_cast<int>(rng.next() % static_cast<std::uint64_t>(n)); };
  const std::vector<nn::Model> zoo = {nn::zoo::efficientnet_b0(), nn::zoo::mobilenet_v2()};
  int duplicate_checks = 0;
  int zero_slo_checks = 0;
  for (int round = 0; round < 60; ++round) {
    // Rounds 0 and 1 are the 0- and 1-device fleets.
    FleetSpec spec = small_fleet(round < 2 ? round : 2 + below(40), 1 + below(12));
    spec.seed = rng.next();
    if (below(2) == 0) spec.models.push_back(zoo[1]);
    spec.mix = {workload::Scenario::kPulsing, workload::Scenario::kRandom,
                workload::Scenario::kPoisson, workload::Scenario::kBurstDecay,
                workload::Scenario::kRamp};
    spec.mix.resize(static_cast<std::size_t>(1 + below(5)));
    spec.workload.low = below(3);
    spec.workload.high = spec.workload.low + below(8);
    spec.workload.trace.assign(static_cast<std::size_t>(below(4)), 3);  // cfg copy
    if (below(2) == 0) {
      sys::SystemConfig fw2 = spec.config;
      fw2.lut_t_entries = 24;
      sys::SystemConfig fw3 = spec.config;
      fw3.lut_k_blocks = 24;
      spec.firmware = {spec.config, fw2, fw3};
    }
    spec.lifecycle.join_fraction = 0.25 * below(5);
    spec.lifecycle.leave_fraction = 0.25 * below(5);
    if (below(2) == 0) spec.latency_slo = Time::ps(1'000'000 * (1 + below(9)));
    const auto id = [&] { return static_cast<std::uint32_t>(below(spec.devices)); };
    std::map<std::uint32_t, std::pair<int, int>> last_window;
    std::map<std::uint32_t, std::int64_t> last_slo;
    for (int o = spec.devices > 0 ? below(6) : 0; o > 0; --o) {
      // Half the time, pin an id twice: the later override must win.
      const std::uint32_t d = below(2) == 0 && !last_window.empty()
                                  ? last_window.begin()->first
                                  : id();
      const int join = below(spec.slices);
      const int leave = below(2) == 0 ? -1 : join + 1 + below(spec.slices - join);
      spec.lifecycle_overrides.push_back({.id = d, .join_slice = join, .leave_slice = leave});
      duplicate_checks += last_window.count(d) > 0 ? 1 : 0;
      last_window[d] = {join, leave < 0 ? spec.slices : leave};
    }
    for (int o = spec.devices > 0 ? below(6) : 0; o > 0; --o) {
      const std::uint32_t d = id();
      const Time slo = below(3) == 0 ? Time::zero() : Time::ps(500'000 * (1 + below(9)));
      spec.slo_overrides.push_back({.id = d, .latency_slo = slo});
      last_slo[d] = slo.as_ps();
    }

    const std::vector<DeviceSpec> all = spec.expand();
    const DeviceExpander expander{spec};
    ASSERT_EQ(expander.size(), all.size());
    ASSERT_EQ(all.size(), static_cast<std::size_t>(spec.devices));
    std::vector<std::size_t> order(all.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next() % i]);
    }
    DeviceSpec reused;
    for (const std::size_t i : order) {
      const std::string where = "round " + std::to_string(round) + ", device " +
                                std::to_string(i);
      DeviceSpec fresh;
      expander.at(i, fresh);
      expect_same_device(fresh, all[i], where + " (fresh)");
      expander.at(i, reused);
      expect_same_device(reused, all[i], where + " (reused)");

      const auto d = static_cast<std::uint32_t>(i);
      if (const auto w = last_window.find(d); w != last_window.end()) {
        EXPECT_EQ(all[i].join_slice, w->second.first) << where;
        EXPECT_EQ(all[i].leave_slice, w->second.second) << where;
      }
      const auto slo = last_slo.find(d);
      const std::int64_t want_slo = slo != last_slo.end() ? slo->second
                                    : spec.latency_slo > Time::zero()
                                        ? spec.latency_slo.as_ps()
                                        : 0;
      EXPECT_EQ(all[i].latency_slo_ps, want_slo) << where;
      zero_slo_checks += slo != last_slo.end() && slo->second == 0 ? 1 : 0;
      EXPECT_LT(all[i].firmware_index, spec.firmware.empty() ? 1u : spec.firmware.size());
      EXPECT_EQ(all[i].cfg.slices, all[i].leave_slice - all[i].join_slice) << where;
    }
  }
  // The last-wins and explicit-zero paths were exercised, not vacuous.
  EXPECT_GT(duplicate_checks, 0);
  EXPECT_GT(zero_slo_checks, 0);
}

TEST(FleetSpec, DeviceLoadsRotateByPhase) {
  FleetSpec spec = small_fleet(1, 8);
  auto specs = spec.expand();
  ASSERT_EQ(specs.size(), 1u);
  DeviceSpec d = specs[0];
  d.scenario = workload::Scenario::kPeriodicSpike;
  d.cfg.spike_period = 8;  // spike at index 0 before rotation
  d.phase = 3;
  const std::vector<int> loads = device_loads(d);
  ASSERT_EQ(loads.size(), 8u);
  // Rotated left by 3: the spike lands at index (0 - 3) mod 8 = 5.
  EXPECT_EQ(loads[5], d.cfg.high);
  EXPECT_EQ(loads[0], d.cfg.low);
}

// --- device edge cases -------------------------------------------------------

TEST(Device, BatteryExhaustedMidRunStopsAndDropsTasks) {
  FleetSpec spec = small_fleet(1, 6);
  // A battery that dies after roughly one busy slice.
  spec.battery.capacity = Energy::mj(10.0);
  auto specs = spec.expand();
  specs[0].scenario = workload::Scenario::kHighConstant;
  placement::LutCache cache;
  Device dev{spec, specs[0], spec.models[0], &cache};
  const DeviceResult r = dev.run(nullptr);
  EXPECT_GE(r.exhausted_at_slice, 0);
  EXPECT_LT(r.slices_executed, r.slices_total);
  EXPECT_GT(r.tasks_dropped, 0u);
  EXPECT_DOUBLE_EQ(r.final_soc, 0.0);
  // Drained energy never exceeds capacity.
  EXPECT_LE(r.energy_pj, r.battery_capacity_pj);
}

TEST(Device, AdaptationPinsLowPowerPlacementUnderLowSoc) {
  FleetSpec spec = small_fleet(1, 8);
  // Start below the low threshold: every slice must run low-power.
  spec.battery.initial_soc = 0.25;
  spec.thresholds = {.low_soc = 0.3, .high_soc = 0.5};
  auto specs = spec.expand();
  specs[0].scenario = workload::Scenario::kLowConstant;
  placement::LutCache cache;
  Device dev{spec, specs[0], spec.models[0], &cache};
  const DeviceResult r = dev.run(nullptr);
  EXPECT_EQ(r.mode_switches, 1u);
  EXPECT_EQ(r.low_power_slices, r.slices_executed);
  // The pinned placement is MRAM-balanced: identical to balanced_mram_split.
  const auto& proc = dev.processor();
  EXPECT_TRUE(proc.placement_override_active());
  const placement::Allocation mram = sys::balanced_mram_split(
      proc.cost_model(), proc.total_weights());
  EXPECT_TRUE(proc.current_allocation() == mram);
}

TEST(Device, NoAdaptMatchesPlainHhpimEnergy) {
  // With adapt off and an effectively infinite battery, a device is exactly
  // a sys::Processor::run_scenario of its jittered trace.
  FleetSpec spec = small_fleet(1, 6);
  spec.adapt = false;
  spec.battery.capacity = Energy::mj(1e9);
  auto specs = spec.expand();
  placement::LutCache cache;
  Device dev{spec, specs[0], spec.models[0], &cache};
  const DeviceResult r = dev.run(nullptr);

  sys::SystemConfig config = spec.config;
  config.lut_cache = &cache;
  sys::Processor proc{config, spec.models[0]};
  const sys::RunStats stats = proc.run_scenario(device_loads(specs[0]));
  // The device sums per-slice ledger deltas, run_scenario takes one
  // end-to-end delta — equal up to FP association, so compare tightly but
  // not bit-exactly (total is ~1e10 pJ).
  EXPECT_NEAR(r.energy_pj, stats.total_energy.as_pj(), 1.0);
  EXPECT_EQ(r.tasks, stats.tasks);
  EXPECT_EQ(r.deadline_violations, stats.deadline_violations);
}

// --- simulator ---------------------------------------------------------------

TEST(FleetSimulator, ZeroDeviceFleet) {
  const FleetSpec spec = small_fleet(0);
  const FleetSimulator sim{{.threads = 4}};
  const FleetResult r = sim.run(spec);
  EXPECT_EQ(r.devices.size(), 0u);
  EXPECT_EQ(r.shard_count, 0u);
  EXPECT_EQ(r.aggregate.devices, 0u);
  EXPECT_EQ(r.to_jsonl(), "");
  EXPECT_NE(r.summary_to_json(), "");  // still a valid summary document
}

TEST(FleetSimulator, DevicesShareLutBuilds) {
  const FleetSpec spec = small_fleet(24, 4);  // one model -> one LUT key
  placement::LutCache cache;
  const FleetSimulator sim{{.threads = 2, .shard_size = 6, .lut_cache = &cache}};
  const FleetResult r = sim.run(spec);
  EXPECT_EQ(r.lut_builds, 1u);
  EXPECT_EQ(r.lut_shared, 23u);
}

// --- SLO-aware frontier policy (docs/PARETO.md) ------------------------------

/// small_fleet with a fleet-wide latency SLO at 60 % of the slice length —
/// comfortably inside the LUT's feasible region at this resolution, so the
/// frontier tiers resolve on every device.
FleetSpec slo_fleet(int devices = 24, int slices = 6) {
  FleetSpec spec = small_fleet(devices, slices);
  spec.name = "slo-fleet";
  const sys::Processor probe{Device::device_config(spec, nullptr), spec.models[0]};
  spec.latency_slo = Time::ps(probe.slice_length().as_ps() * 3 / 5);
  return spec;
}

TEST(SelectTier, ExactThresholdsMirrorThePolicy) {
  const AdaptiveThresholds thr{.low_soc = 0.3, .high_soc = 0.5};
  // kSaver rides the mode hysteresis, whatever the SoC says.
  EXPECT_EQ(select_tier(DeviceMode::kLowPower, 0.9, thr), FrontierTier::kSaver);
  EXPECT_EQ(select_tier(DeviceMode::kLowPower, 0.1, thr), FrontierTier::kSaver);
  // Exactly at the high threshold buys performance (>=, like update()).
  EXPECT_EQ(select_tier(DeviceMode::kDynamic, 0.50, thr), FrontierTier::kPerformance);
  EXPECT_EQ(select_tier(DeviceMode::kDynamic, 0.499999, thr), FrontierTier::kBalanced);
  EXPECT_EQ(select_tier(DeviceMode::kDynamic, 1.0, thr), FrontierTier::kPerformance);
  EXPECT_EQ(select_tier(DeviceMode::kDynamic, 0.31, thr), FrontierTier::kBalanced);
}

TEST(FleetSpecSlo, DigestGuardAndValidation) {
  const FleetSpec plain = small_fleet();
  FleetSpec slo = small_fleet();
  const std::uint64_t before = slo.content_digest();
  EXPECT_EQ(before, plain.content_digest());

  slo.latency_slo = Time::ms(5.0);
  EXPECT_NE(slo.content_digest(), before);
  slo.latency_slo = Time::zero();
  // The SLO block is fully guarded: unsetting restores the pre-SLO digest,
  // so old snapshots keep restoring onto SLO-capable builds.
  EXPECT_EQ(slo.content_digest(), before);
  slo.slo_overrides.push_back({.id = 0, .latency_slo = Time::ms(2.0)});
  EXPECT_NE(slo.content_digest(), before);

  FleetSpec bad = small_fleet();
  bad.latency_slo = Time::ps(-1);
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.latency_slo = Time::zero();
  bad.slo_overrides = {{.id = 99, .latency_slo = Time::ms(1.0)}};  // id out of range
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  FleetSpec wrong_arch = small_fleet();
  wrong_arch.adapt = false;
  wrong_arch.config.arch = sys::ArchConfig::baseline();
  wrong_arch.latency_slo = Time::ms(5.0);  // SLO needs the HH-PIM LUT
  EXPECT_THROW(wrong_arch.validate(), std::invalid_argument);
}

TEST(FleetSpecSlo, ExpandAddsNoRngDrawsAndOverridesWin) {
  const FleetSpec plain = small_fleet(16);
  FleetSpec slo = small_fleet(16);
  slo.latency_slo = Time::ms(4.0);
  slo.slo_overrides.push_back({.id = 3, .latency_slo = Time::zero()});
  slo.slo_overrides.push_back({.id = 5, .latency_slo = Time::ms(1.0)});

  const auto a = plain.expand();
  const auto b = slo.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // The SLO assignment must not disturb the seeded jitter draws: every
    // other per-device field is byte-for-byte the no-SLO expansion.
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].model_index, b[i].model_index);
    EXPECT_EQ(a[i].scenario, b[i].scenario);
    EXPECT_EQ(a[i].phase, b[i].phase);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].join_slice, b[i].join_slice);
    EXPECT_EQ(a[i].leave_slice, b[i].leave_slice);
    EXPECT_EQ(a[i].latency_slo_ps, 0);
    const std::int64_t expect = i == 3   ? 0
                                : i == 5 ? Time::ms(1.0).as_ps()
                                         : Time::ms(4.0).as_ps();
    EXPECT_EQ(b[i].latency_slo_ps, expect) << i;
  }
}

TEST(Device, SloTierFollowsSocAtExactThresholds) {
  // Two identical devices either side of the high-SoC threshold pin
  // different frontier points from slice one: performance (min latency) at
  // exactly 0.50, balanced (the SLO anchor) just below.
  FleetSpec at = slo_fleet(1, 4);
  at.thresholds = {.low_soc = 0.3, .high_soc = 0.5};
  at.battery.initial_soc = 0.5;
  FleetSpec below = at;
  below.battery.initial_soc = 0.499;

  placement::LutCache cache;
  auto at_specs = at.expand();
  auto below_specs = below.expand();
  at_specs[0].scenario = workload::Scenario::kLowConstant;
  below_specs[0].scenario = workload::Scenario::kLowConstant;
  Device d_at{at, at_specs[0], at.models[0], &cache};
  Device d_below{below, below_specs[0], below.models[0], &cache};
  const DeviceResult r_at = d_at.run(nullptr);
  const DeviceResult r_below = d_below.run(nullptr);

  EXPECT_EQ(r_at.latency_slo_ps, at.latency_slo.as_ps());
  // Different tiers -> different pinned allocations -> observably different
  // runs (busy time and drained energy both move; the direction mixes the
  // steady-state gap with the first slice's one-off weight movement, so only
  // the difference itself is pinned — the threshold semantics are unit-tested
  // in SelectTier above).
  EXPECT_NE(r_at.busy_time_ps, r_below.busy_time_ps);
  EXPECT_NE(r_at.energy_pj, r_below.energy_pj);
}

TEST(Device, SloTierSwitchesAsTheBatteryDrains) {
  // Start just above the high threshold: the device opens in kPerformance
  // and any realistic per-slice drain (a few mJ against the 250 mJ default
  // battery) crosses 0.5 within a few slices, dropping it to kBalanced — at
  // least one tier switch, counted separately from mode switches, with no
  // exhaustion risk.
  FleetSpec spec = slo_fleet(1, 8);
  spec.battery.initial_soc = 0.55;
  auto specs = spec.expand();
  specs[0].scenario = workload::Scenario::kHighConstant;
  placement::LutCache cache;
  Device dev{spec, specs[0], spec.models[0], &cache};
  const DeviceResult r = dev.run(nullptr);
  EXPECT_GE(r.tier_switches, 1u);
  EXPECT_GT(r.latency_slo_ps, 0);
}

TEST(FleetSimulator, SloFieldsAppearOnlyWhenSet) {
  placement::LutCache plain_cache, slo_cache;
  const FleetResult plain = FleetSimulator{{.threads = 1, .lut_cache = &plain_cache}}
                                .run(small_fleet(6, 4));
  const FleetResult slo =
      FleetSimulator{{.threads = 1, .lut_cache = &slo_cache}}.run(slo_fleet(6, 4));
  // No-SLO JSONL carries no SLO fields at all — the schema (and the bytes)
  // are exactly the pre-SLO ones.
  EXPECT_EQ(plain.to_jsonl().find("latency_slo_ps"), std::string::npos);
  EXPECT_EQ(plain.to_jsonl().find("tier_switches"), std::string::npos);
  EXPECT_NE(slo.to_jsonl().find("latency_slo_ps"), std::string::npos);
  EXPECT_NE(slo.to_jsonl().find("tier_switches"), std::string::npos);
}

TEST(OutcomeCacheSlo, DifferentSlosNeverShareAMemoBucket) {
  // Two devices in identical processor states but with different SLOs (or
  // different tiers at the same SLO) must never replay each other's slices:
  // the first slice's state predates the tier override install, so only
  // the key separates them.
  OutcomeCache cache;
  const State& state = cache.intern(7, "state");
  const SliceKey base{.slo_ps = 1'000'000, .n_tasks = 3, .mode = 0, .tier = 0};
  (void)cache.record(state, base, SliceOutcome{100.0, 5, 2, 0, false, nullptr}, "next");
  ASSERT_NE(state.find(base), nullptr);

  SliceKey other_slo = base;
  other_slo.slo_ps = 2'000'000;
  SliceKey no_slo = base;
  no_slo.slo_ps = 0;
  SliceKey other_tier = base;
  other_tier.tier = static_cast<std::uint8_t>(FrontierTier::kPerformance);
  EXPECT_EQ(state.find(other_slo), nullptr);
  EXPECT_EQ(state.find(no_slo), nullptr);
  EXPECT_EQ(state.find(other_tier), nullptr);
}

TEST(FleetSimulator, AggregateCountsAreConsistent) {
  const FleetSpec spec = small_fleet(16, 5);
  placement::LutCache cache;
  const FleetSimulator sim{{.threads = 1, .shard_size = 5, .lut_cache = &cache}};
  const FleetResult r = sim.run(spec);
  ASSERT_EQ(r.devices.size(), 16u);
  std::uint64_t tasks = 0, executed = 0;
  for (const DeviceResult& d : r.devices) {
    tasks += d.tasks;
    executed += static_cast<std::uint64_t>(d.slices_executed);
  }
  EXPECT_EQ(r.aggregate.devices, 16u);
  EXPECT_EQ(r.aggregate.tasks, tasks);
  EXPECT_EQ(r.aggregate.executed_slices, executed);
  // Every executed slice contributed one sample to each slice histogram.
  EXPECT_EQ(r.aggregate.slice_bins.busy_frac.total(), executed);
  EXPECT_EQ(r.aggregate.slice_bins.slice_energy.total(), executed);
}

// --- whole-device replay and worker-built results ------------------------------

/// A walk_run_inputs visitor keeping each key field's bytes and counting the
/// echoes.
struct KeyBytes {
  std::string bytes;
  int echoes = 0;
  template <class T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void key_of(T v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  template <class T>
  void key(const T& v) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      key_of(v);
    } else {
      key_of(v.size());
      for (const auto& e : v) key_of(e);
    }
  }
  template <class T>
  void echo(const T&) {
    ++echoes;
  }
};

std::string run_key(const DeviceSpec& ds, int* echoes = nullptr) {
  KeyBytes k;
  walk_run_inputs(k, ds);
  if (echoes != nullptr) *echoes = k.echoes;
  return k.bytes;
}

TEST(WholeDeviceReplay, RunKeyNamesWhatTheRunReads) {
  DeviceSpec base;
  base.scenario = workload::Scenario::kPulsing;
  base.cfg.slices = 12;
  base.phase = 5;
  base.leave_slice = 12;
  int echoes = 0;
  const std::string key = run_key(base, &echoes);
  EXPECT_EQ(echoes, 3);  // id, seed and the generator seed of a deterministic shape

  // Echoes and the rotation's whole turns leave the key as it is.
  const auto same = [&](auto&& mutate, const char* what) {
    DeviceSpec d = base;
    mutate(d);
    EXPECT_EQ(run_key(d), key) << what;
  };
  same([](DeviceSpec& d) { d.id = 77; }, "id");
  same([](DeviceSpec& d) { d.seed = 9; }, "seed");
  same([](DeviceSpec& d) { d.cfg.seed = 9; }, "cfg.seed of a deterministic shape");
  same([](DeviceSpec& d) { d.phase += d.cfg.slices; }, "phase + slices");
  // A negative phase rotates the trace as its unsigned value does.
  DeviceSpec negative = base;
  negative.phase = -1;
  DeviceSpec rotated = base;
  rotated.phase = static_cast<int>(static_cast<std::uint64_t>(-1) % 12);
  EXPECT_EQ(run_key(negative), run_key(rotated));
  EXPECT_EQ(device_loads(negative), device_loads(rotated));

  // Every input the run reads moves it.
  const auto moves = [&](auto&& mutate, const char* what) {
    DeviceSpec d = base;
    mutate(d);
    EXPECT_NE(run_key(d), key) << what;
  };
  moves([](DeviceSpec& d) { d.model_index = 1; }, "model_index");
  moves([](DeviceSpec& d) { d.scenario = workload::Scenario::kBurstDecay; }, "scenario");
  moves([](DeviceSpec& d) { d.cfg.slices = 11; }, "cfg.slices");
  moves([](DeviceSpec& d) { d.cfg.low = 3; }, "cfg.low");
  moves([](DeviceSpec& d) { d.cfg.high = 11; }, "cfg.high");
  moves([](DeviceSpec& d) { d.cfg.spike_period = 3; }, "cfg.spike_period");
  moves([](DeviceSpec& d) { d.cfg.spike_period_frequent = 3; }, "cfg.spike_period_frequent");
  moves([](DeviceSpec& d) { d.cfg.pulse_width = 3; }, "cfg.pulse_width");
  moves([](DeviceSpec& d) { d.cfg.burst_period = 3; }, "cfg.burst_period");
  moves([](DeviceSpec& d) { d.cfg.burst_decay = 0.25; }, "cfg.burst_decay");
  moves([](DeviceSpec& d) { d.cfg.poisson_mean = 2.0; }, "cfg.poisson_mean");
  moves([](DeviceSpec& d) { d.cfg.trace_path = "t"; }, "cfg.trace_path");
  moves([](DeviceSpec& d) { d.cfg.trace = {1}; }, "cfg.trace");
  moves([](DeviceSpec& d) { d.phase = 6; }, "phase");
  moves([](DeviceSpec& d) { d.firmware_index = 1; }, "firmware_index");
  moves([](DeviceSpec& d) { d.join_slice = 1; }, "join_slice");
  moves([](DeviceSpec& d) { d.leave_slice = 11; }, "leave_slice");
  moves([](DeviceSpec& d) { d.latency_slo_ps = 1; }, "latency_slo_ps");
  // A randomized shape draws from its generator seed: it is keyed.
  DeviceSpec random = base;
  random.scenario = workload::Scenario::kRandom;
  DeviceSpec reseeded = random;
  reseeded.cfg.seed = 9;
  EXPECT_NE(run_key(random), run_key(reseeded));
}

/// A fleet of deterministic shapes whose run inputs repeat: one model, no
/// churn, so phase, shape and firmware make a few dozen classes.
FleetSpec repeating_fleet(int devices) {
  FleetSpec spec = small_fleet(devices, 6);
  spec.mix = {workload::Scenario::kPulsing, workload::Scenario::kBurstDecay,
              workload::Scenario::kPeriodicSpike, workload::Scenario::kRandom};
  spec.battery.capacity = Energy::mj(40.0);  // some devices exhaust
  spec.charging = {4, 1, Energy::mj(3.0)};
  return spec;
}

TEST(WholeDeviceReplay, WorkerBuiltResultsMatchAtAnyThreadCount) {
  // Workers construct the result slots of their shards in place, and a
  // device whose run inputs repeat replays whole: every result, the JSONL
  // and the summary equal the one-thread, memo-off run at 1, 2, 4 and 8
  // threads, memo on and off.
  const FleetSpec spec = repeating_fleet(150);
  placement::LutCache luts;
  (void)cases::run_with(spec, 1, &luts, nullptr);  // warm: lut_builds 0 below
  const FleetResult ref = cases::run_with(spec, 1, &luts, nullptr);
  ASSERT_EQ(ref.devices.size(), 150u);
  const std::string jsonl = ref.to_jsonl();
  const std::string summary = ref.summary_to_json();
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const bool memo : {false, true}) {
      OutcomeCache outcomes;
      const FleetResult r = cases::run_with(spec, threads, &luts, memo ? &outcomes : nullptr);
      const std::string where = "threads=" + std::to_string(threads) + " memo=" +
                                std::to_string(memo);
      ASSERT_EQ(r.devices.size(), ref.devices.size()) << where;
      for (std::size_t i = 0; i < r.devices.size(); ++i) {
        EXPECT_EQ(r.devices[i].id, i) << where;
        EXPECT_EQ(r.devices[i].seed, ref.devices[i].seed) << where;
        EXPECT_EQ(r.devices[i].energy_pj, ref.devices[i].energy_pj) << where;
      }
      EXPECT_EQ(r.to_jsonl(), jsonl) << where;
      EXPECT_EQ(r.summary_to_json(), summary) << where;
      if (memo && threads == 1) {
        // One worker sees every class: all but the first two devices of
        // each of the 18 deterministic (shape, phase) classes replay whole,
        // about half the fleet (a quarter draws the randomized shape).
        EXPECT_GT(3 * r.memo_device_replays, r.aggregate.devices) << where;
      }
      if (!memo) {
        EXPECT_EQ(r.memo_device_replays, 0u) << where;
      }
    }
  }
  // Copies and hand-built lists hold the same results.
  const FleetResult copy = ref;
  EXPECT_EQ(copy.to_jsonl(), jsonl);
  FleetResult by_hand = ref;
  by_hand.devices = DeviceResults{std::vector<DeviceResult>(ref.devices.begin(), ref.devices.end())};
  EXPECT_EQ(by_hand.to_jsonl(), jsonl);
  const DeviceResults taken = std::move(by_hand.devices);
  EXPECT_EQ(taken.size(), ref.devices.size());
  EXPECT_EQ(by_hand.devices.size(), 0u);  // moved from: empty
  EXPECT_EQ(by_hand.to_jsonl(), "");
}

TEST(WholeDeviceReplay, ResultsAreDroppedWhenAShardThrows) {
  // One live device of a checkpoint carries a blob that does not load, so
  // its shard throws while the others finish: resume() rethrows and no
  // result escapes, with results kept (the workers' raw storage is freed
  // without a read; ASan/LSan check it) at any thread count.
  const FleetSpec spec = repeating_fleet(96);
  placement::LutCache luts;
  FleetSnapshot snap = FleetSimulator{cases::options(2, 8, &luts, nullptr)}.run_to(spec, 3);
  std::size_t live = snap.devices.size();
  for (std::size_t d = 40; d < snap.devices.size() && live == snap.devices.size(); ++d) {
    if (snap.devices[d].proc_blob != nullptr) live = d;
  }
  ASSERT_LT(live, snap.devices.size());
  snap.devices[live].proc_blob = std::make_shared<const std::string>("not a state");
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const bool memo : {false, true}) {
      OutcomeCache outcomes;
      FleetOptions o = cases::options(threads, 8, &luts, memo ? &outcomes : nullptr);
      EXPECT_THROW((void)FleetSimulator{o}.resume(spec, snap), std::runtime_error)
          << "threads=" << threads << " memo=" << memo;
    }
  }
}

}  // namespace
}  // namespace hhpim::fleet
