// Declarative fleet descriptions.
//
// A FleetSpec describes N independent simulated edge devices in one object:
// the model population, the scenario mix each device draws its request
// stream from, the shared SystemConfig, the battery, and the adaptation
// thresholds. A DeviceExpander derives any one device's DeviceSpec on its
// own — deterministic, allocation-free for a reused spec, and cheap (loads
// are *not* materialized here; each device carries a cursor over its trace,
// built from the DeviceSpec's scenario config, which fully determines it) —
// so the simulator's workers expand only the shards they claim. expand() is
// the whole fleet's drain of it.
//
// Per-device diversity comes from three seeded draws per device (model
// index, scenario kind, phase) plus a per-device scenario seed, all derived
// from FleetSpec::seed with common/rng.hpp SplitMix64 — so the same spec
// expands to byte-identical DeviceSpecs on every host and at every thread
// count.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "energy/battery.hpp"
#include "fleet/policy.hpp"
#include "hhpim/processor.hpp"
#include "nn/model.hpp"
#include "workload/scenario.hpp"

namespace hhpim::fleet {

/// Bin layout of the fleet-wide aggregate histograms (see aggregate.hpp).
/// Part of the spec because shards can only merge histograms of identical
/// shape; the shape must therefore be fixed before the run starts.
struct AggregateShape {
  /// Slice busy time as a fraction of the slice length T; values at or
  /// above `busy_frac_max` land in the overflow bin (reported separately).
  double busy_frac_max = 2.0;
  std::size_t busy_frac_bins = 200;
  /// Per-slice energy in millijoules (Table IV models on HH-PIM charge
  /// single-digit mJ per slice; see BENCH_fleet.json for measured spreads).
  double slice_energy_mj_max = 60.0;
  std::size_t slice_energy_bins = 256;
};

/// Everything one worker needs to simulate one device (plus the FleetSpec
/// it came from). Loads are generated on demand: workload::generate(kind,
/// cfg) rotated left by `phase` slices — the per-device jitter — streamed
/// slice by slice (start_load_stream).
struct DeviceSpec {
  std::uint32_t id = 0;
  std::size_t model_index = 0;       ///< into FleetSpec::resolved_models()
  workload::Scenario scenario = workload::Scenario::kLowConstant;
  workload::ScenarioConfig cfg;      ///< per-device seed already applied
  int phase = 0;                     ///< left rotation of the load trace
  std::uint64_t seed = 0;            ///< effective per-device seed (echo)
  std::size_t firmware_index = 0;    ///< into FleetSpec::resolved_firmware()
  /// Lifecycle window in global slice indices: the device executes global
  /// slices [join_slice, leave_slice). A device that stays to the horizon
  /// (leave_slice == FleetSpec::slices, or the -1 hand-built default) runs
  /// the drain slice for its final buffer; one that leaves early drops the
  /// final buffer exactly like exhaustion drops future arrivals.
  int join_slice = 0;
  int leave_slice = -1;              ///< -1 = runs to the horizon
  /// Per-device latency SLO in picoseconds; 0 = none. When set, the device
  /// pins an SLO-aware Pareto-frontier point per slice (FrontierTier) instead
  /// of the plain dynamic/MRAM-pinned toggle — see docs/PARETO.md.
  std::int64_t latency_slo_ps = 0;
};

/// Names every DeviceSpec field once, in declaration order: `v.key(x)` for
/// each input a device's run reads from its start, `v.echo(x)` for the ones
/// it only copies into its DeviceResult (id, seed) or never reads. Within one
/// FleetSimulator call (one FleetSpec, envelope and set of machines), two
/// devices whose keys agree run identically up to their echoes: the
/// simulator's whole-device replay keys on this walk. The structured
/// bindings list every field of DeviceSpec and ScenarioConfig, so a field
/// added to either does not compile here until it is classified.
template <class V>
void walk_run_inputs(V& v, const DeviceSpec& ds) {
  const auto& [id, model_index, scenario, cfg, phase, seed, firmware_index, join_slice,
               leave_slice, latency_slo_ps] = ds;
  const auto& [slices, low, high, spike_period, spike_period_frequent, pulse_width, cfg_seed,
               burst_period, burst_decay, poisson_mean, trace_path, trace] = cfg;
  v.echo(id);
  v.key(model_index);
  v.key(scenario);
  v.key(slices);
  v.key(low);
  v.key(high);
  v.key(spike_period);
  v.key(spike_period_frequent);
  v.key(pulse_width);
  // The generator seed: only the randomized shapes draw from it.
  if (workload::LoadStream::randomized(scenario)) {
    v.key(cfg_seed);
  } else {
    v.echo(cfg_seed);
  }
  v.key(burst_period);
  v.key(burst_decay);
  v.key(poisson_mean);
  v.key(trace_path);
  v.key(trace);
  // The rotation as the load cursor reads it (LoadStream::init): modulo the
  // trace length, of the phase taken as unsigned.
  v.key(slices > 0 ? static_cast<std::uint64_t>(phase) % static_cast<std::uint64_t>(slices)
                   : static_cast<std::uint64_t>(phase));
  v.echo(seed);
  v.key(firmware_index);
  v.key(join_slice);
  v.key(leave_slice);
  v.key(latency_slo_ps);
}

/// Random lifecycle draws of the expansion: each device independently joins
/// late / leaves early with these probabilities (uniform slice within the
/// legal range). Zero fractions draw nothing, so default specs expand
/// byte-identically to pre-lifecycle builds.
struct LifecycleSpec {
  double join_fraction = 0.0;   ///< P(device joins at a slice > 0)
  double leave_fraction = 0.0;  ///< P(device leaves before the horizon)
};

/// Pins one device's lifecycle window, overriding the random draws.
struct LifecycleOverride {
  std::uint32_t id = 0;
  int join_slice = 0;
  int leave_slice = -1;  ///< -1 = runs to the horizon
};

/// Pins one device's latency SLO, overriding FleetSpec::latency_slo.
struct SloOverride {
  std::uint32_t id = 0;
  Time latency_slo = Time::zero();  ///< zero = explicitly no SLO
};

/// Global charging schedule: during the first `window` slices of every
/// `period`-slice cycle (in global slice indices), each live device
/// recharges `energy_per_slice` at the start of the executed slice —
/// before the adaptive policy observes the SoC — clamped at capacity by
/// Battery::recharge. period == 0 disables charging.
struct ChargingSpec {
  int period = 0;
  int window = 0;
  Energy energy_per_slice = Energy::zero();
};

/// Global load envelope: one workload::generate stream over the fleet
/// horizon, normalized to [min_multiplier, max_multiplier] by the shape's
/// own low/high, multiplying every device's arrivals at its *global* slice
/// index (effective = int(raw * m + 0.5)). min == max == 1.0 reproduces
/// un-enveloped output byte-identically.
struct LoadEnvelope {
  bool enabled = false;
  workload::Scenario shape = workload::Scenario::kPulsing;
  workload::ScenarioConfig cfg;  ///< slices/seed overridden from the fleet
  double min_multiplier = 1.0;
  double max_multiplier = 1.0;
  std::uint64_t seed = 0xd1a2025;
};

struct FleetSpec {
  std::string name = "fleet";
  /// Device count; 0 is allowed (an empty fleet expands to no devices and
  /// simulates to empty results — useful for pipeline plumbing tests).
  int devices = 1000;
  /// Time slices per device run (the drain slice is added on top).
  int slices = 20;
  /// Model population; empty = nn::zoo::paper_models(). Devices draw
  /// uniformly — devices sharing a model also share one cached placement
  /// LUT (placement::LutCache), the fan-in that makes fleet runs cheap.
  std::vector<nn::Model> models;
  /// Scenario mix devices draw from; empty = a default dynamic mix
  /// {pulsing, random, poisson, burst-decay}.
  std::vector<workload::Scenario> mix;
  /// Base scenario shape (low/high, spike periods, ...). `slices` and
  /// `seed` are overridden per device.
  workload::ScenarioConfig workload;
  /// Shared system configuration. The arch must be HH-PIM with MRAM when
  /// `adapt` is on (the adaptation pins an MRAM placement); `lut_cache`
  /// must stay null — the simulator supplies it (FleetOptions::lut_cache;
  /// validate() rejects a preset cache).
  sys::SystemConfig config;
  /// Firmware heterogeneity: the per-device SystemConfig population (mixed
  /// ArchConfigs / power specs / knob generations in one fleet). Empty =
  /// {config}; devices draw uniformly. Every entry obeys the same
  /// constraints as `config` (null lut_cache; HH-PIM with MRAM when
  /// `adapt` is on).
  std::vector<sys::SystemConfig> firmware;
  energy::BatteryConfig battery;
  AdaptiveThresholds thresholds;
  /// Battery-driven mode adaptation (fleet::AdaptivePolicy). Off = every
  /// device runs the plain HH-PIM dynamic policy until its battery dies.
  bool adapt = true;
  std::uint64_t seed = 0x5eed2025;
  AggregateShape histograms;
  LifecycleSpec lifecycle;
  /// Pinned lifecycle windows, applied after the random draws (by id).
  std::vector<LifecycleOverride> lifecycle_overrides;
  ChargingSpec charging;
  LoadEnvelope envelope;
  /// Fleet-wide latency SLO; zero = off. When off and `slo_overrides` is
  /// empty, every derived field stays at its default and the spec expands,
  /// digests and simulates byte-identically to pre-SLO builds.
  Time latency_slo = Time::zero();
  /// Per-device SLO pins, applied after the fleet-wide default (by id).
  std::vector<SloOverride> slo_overrides;

  /// The model population after defaulting (never empty).
  [[nodiscard]] std::vector<nn::Model> resolved_models() const;
  /// The scenario mix after defaulting (never empty).
  [[nodiscard]] std::vector<workload::Scenario> resolved_mix() const;
  /// The firmware population after defaulting (never empty).
  [[nodiscard]] std::vector<sys::SystemConfig> resolved_firmware() const;

  /// The per-global-slice envelope multiplier stream over the horizon;
  /// empty when envelope.enabled is false. Resolved once per run and shared
  /// by every worker.
  [[nodiscard]] std::vector<double> envelope_multipliers() const;

  /// Digest of every behavior-determining field (models, firmware reuse
  /// keys, workload shape, battery, lifecycle, charging, envelope, seed...)
  /// — the identity a FleetSnapshot is pinned to: restoring onto a spec
  /// with a different digest fails loudly.
  [[nodiscard]] std::uint64_t content_digest() const;

  /// One DeviceSpec per device, in id order: DeviceExpander::at over every
  /// id (same throws as its constructor). Tests and benchmark setup use it;
  /// the simulator expands device by device and never holds this vector.
  [[nodiscard]] std::vector<DeviceSpec> expand() const;

  /// Validation only (the DeviceExpander constructor's throws); O(mix +
  /// firmware * models + slices when the envelope is enabled).
  void validate() const;
};

/// Per-device expansion of one FleetSpec: at(i, out) writes device i's
/// DeviceSpec, lifecycle window normalized (leave_slice resolved to `slices`
/// for horizon devices; cfg.slices = leave - join). Every field of `out` is
/// overwritten, so one spec reused across devices in any order equals a
/// fresh fill. Device i's draws come from its own SplitMix64 stream, and the
/// overrides are indexed once here (the last override for an id wins), so
/// at() reads nothing another device wrote: concurrent calls are safe. The
/// spec must outlive the expander.
class DeviceExpander {
 public:
  /// Throws std::invalid_argument on a malformed spec (negative devices,
  /// slices <= 0, a trace scenario in the mix, adapt on a non-HH-PIM /
  /// MRAM-less arch, or an out-of-range lifecycle override) — validate().
  explicit DeviceExpander(const FleetSpec& spec);

  /// The fleet's device count.
  [[nodiscard]] std::size_t size() const;
  /// Fills `out` with device `i`'s spec (i < size()).
  void at(std::size_t i, DeviceSpec& out) const;

 private:
  const FleetSpec& spec_;
  std::size_t n_models_;
  std::vector<workload::Scenario> shapes_;
  std::size_t n_firmware_;
  std::vector<LifecycleOverride> lifecycle_;  ///< last per id, id-sorted
  std::vector<SloOverride> slo_;              ///< last per id, id-sorted
};

/// The materialized per-slice load trace of one device: generate + rotate
/// (a drain of start_load_stream(spec, {}, ...)).
[[nodiscard]] std::vector<int> device_loads(const DeviceSpec& spec);

/// device_loads() with the fleet's envelope applied, into a caller-owned
/// buffer (resized, capacity reused): arrival k of a device is scaled by
/// env[join_slice + k] (the device's *global* slice index), rounded to
/// nearest. An empty `env` applies no scaling.
void device_loads_into(const DeviceSpec& spec, const std::vector<double>& env,
                       std::vector<int>& out);

/// Binds `cursor` to arrival 0 of the device's arrival stream — what
/// device_loads_into(spec, env, ...) materializes, one value per next() —
/// reusing the cursor's storage. `env` must outlive it. Throws
/// std::invalid_argument for a trace-replay device.
void start_load_stream(const DeviceSpec& spec, std::span<const double> env,
                       workload::LoadStream& cursor);

/// The same cursor at arrival `k`, resumed from the state() it had there.
[[nodiscard]] workload::LoadStream resume_load_stream(
    const DeviceSpec& spec, std::span<const double> env, int k,
    const workload::LoadStream::State& state);

}  // namespace hhpim::fleet
