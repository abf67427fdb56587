// One simulated edge device: the per-slice control loop of the fleet.
//
// A device's whole mutable state is a DeviceProgress — battery charge,
// hysteresis mode, frontier tier, counters and buffered busy-time samples —
// and every slice is one step on it, whoever computes the slice:
//
//   begin_slice  1. charging window: recharge, clamped to capacity
//                2. observe SoC -> hysteresis mode (next_mode); SLO devices
//                   also pick a frontier tier (select_tier)
//   (outcome)    3. run the slice: on a sys::Processor (Device::place
//                   installs the mode/tier as a placement override) or
//                   replayed from the fleet's outcome memo
//   end_slice    4. drain the slice's requested energy, clamped to the
//                   charge; count; bin the slice into the slice histograms;
//                   feed its busy time to busy_us (a bounded segment buffers
//                   it instead); buffer the slice's arrivals, drawn from
//                   the device's load cursor
//                5. battery hit zero mid-slice -> record exhaustion, stop;
//                   arrivals that never executed are counted as dropped
//
// The slice protocol is sys::Processor::run_scenario's (arrivals in slice k
// execute in slice k+1, one trailing drain slice for devices that stay to
// the horizon). Devices are strictly single-threaded and share no mutable
// state; the only cross-device object is the placement::LutCache (immutable
// entries), which is what makes a fleet of thousands cheap: devices with the
// same model and arch resolve to the same LUT build.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fleet/outcome_cache.hpp"
#include "fleet/policy.hpp"
#include "fleet/spec.hpp"
#include "hhpim/processor.hpp"
#include "nn/model.hpp"

namespace hhpim::placement {
class LutCache;  // placement/lut_cache.hpp — only a pointer is passed through
}

namespace hhpim::fleet {

class FleetAggregate;  // fleet/aggregate.hpp

/// Everything one device run produces; one JSONL line each (the schema is
/// documented in docs/FLEET.md). Times are picoseconds, energies picojoules
/// (matching exp::RunResult); SoC is in [0, 1]. Model and scenario are
/// interned — `model_index` points into FleetResult::model_names (the
/// FleetSpec's resolved model table) and `scenario` is the enum; both
/// resolve to strings only at JSONL-write time, so a million DeviceResults
/// carry no per-device string allocations.
struct DeviceResult {
  std::uint32_t id = 0;
  std::uint32_t model_index = 0;
  workload::Scenario scenario = workload::Scenario::kLowConstant;
  std::uint64_t seed = 0;
  std::int64_t slice_ps = 0;           ///< the device's slice length T

  int slices_total = 0;                ///< planned slices incl. the drain slice
  int slices_executed = 0;             ///< actually run (< total if exhausted)
  std::uint64_t tasks = 0;
  std::uint64_t tasks_dropped = 0;     ///< arrived but never executed
  std::uint64_t deadline_violations = 0;

  double energy_pj = 0.0;              ///< total drained from the battery
  double battery_capacity_pj = 0.0;
  double final_soc = 0.0;
  int exhausted_at_slice = -1;         ///< slice whose drain hit zero; -1 = never

  std::uint32_t mode_switches = 0;
  int low_power_slices = 0;            ///< slices run under the pinned placement

  std::int64_t busy_time_ps = 0;       ///< sum of per-slice busy times
  std::int64_t max_busy_ps = 0;        ///< worst slice
  std::int64_t movement_time_ps = 0;   ///< sum of per-slice movement overheads

  // SLO-aware frontier policy (zero / absent from JSONL when the device has
  // no SLO — docs/PARETO.md).
  std::int64_t latency_slo_ps = 0;     ///< DeviceSpec::latency_slo_ps echo
  std::uint32_t tier_switches = 0;     ///< frontier-tier transitions

  /// RISC-V host cycles retired across all slices (zero / absent from JSONL
  /// unless the firmware enables SystemConfig::host — docs/RISCV.md).
  std::uint64_t host_cycles = 0;
};

/// A device's per-slice busy times, in slice order, dictionary-coded: up to
/// 255 distinct values in first-seen order, one u8 code per slice, and a
/// spill list of raw values taken by code 255 once the dictionary is full.
/// Through the outcome memo a device replays a few hundred stored outcomes,
/// so its slices name a few dozen distinct busy times: one byte per slice
/// keeps every value exactly. Only bounded segments buffer samples here
/// (FleetSimulator::run_to); a final segment feeds busy_us as it runs.
class BusyColumn {
 public:
  /// The code of a spilled sample; also the dictionary's capacity.
  static constexpr std::uint8_t kSpill = 255;

  /// An exact value → code index of one column's dictionary, held by a
  /// worker rather than by each column (a column stays one byte per
  /// slice): bind() it to a column, then push that column's samples through
  /// it. A push to the column without it, or a bind to another column,
  /// leaves it stale until the next bind.
  class Index {
   public:
    void bind(const BusyColumn& column);

   private:
    friend class BusyColumn;
    /// Open addressing at a load of at most 255/512, so a probe stops.
    static constexpr std::size_t kSlots = 512;
    static_assert(std::has_single_bit(kSlots));
    /// The slot a probe for `value` starts at.
    [[nodiscard]] static std::size_t home(std::int64_t value);
    /// The value's code, or kSpill when the dictionary does not hold it.
    [[nodiscard]] std::uint8_t find(std::int64_t value) const;
    void insert(std::int64_t value, std::uint8_t code);

    std::array<std::int64_t, kSlots> values_{};
    std::array<std::uint8_t, kSlots> codes_{};  ///< kSpill = an empty slot
  };

  /// Appends one sample: a value the dictionary holds takes its code, a new
  /// one the next code while there is room, else kSpill and a spill entry.
  /// Binds a fresh index per call; a run of pushes passes a bound one.
  void push(std::int64_t busy_ps) {
    Index index;
    index.bind(*this);
    push(busy_ps, index);
  }
  /// push() through `index`, bound to this column: one hash probe, where
  /// the dictionary alone would take a scan.
  void push(std::int64_t busy_ps, Index& index);
  /// Empties the column, keeping its capacity.
  void clear();
  /// Capacity for `n` samples' codes.
  void reserve(std::size_t n) { codes_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return codes_.size(); }
  [[nodiscard]] bool empty() const { return codes_.empty(); }

  /// Calls `f(busy_ps)` for every sample, in slice order.
  template <class F>
  void for_each(F&& f) const {
    const std::int64_t* spilled = spill_.data();
    for (const std::uint8_t c : codes_) f(c == kSpill ? *spilled++ : values_[c]);
  }

  /// The snapshot codec's walk (fleet/snapshot.cpp), as the column is held:
  /// the values, the codes and the spill, each a counted column. A loading
  /// walk then refuses a column push() could not have built
  /// (std::runtime_error): more than 255 values, a value twice, a code past
  /// the values other than 255, or a spill count other than the number of
  /// 255 codes.
  template <class V>
  void walk(V& v) {
    const std::size_t at = v.position();
    v.count(values_, sizeof(std::int64_t), "busy values");
    v.i64s(values_);
    v.count(codes_, 1, "busy codes");
    v.u8s(codes_);
    v.count(spill_, sizeof(std::int64_t), "busy spill values");
    v.i64s(spill_);
    if constexpr (V::kLoad) check(at);
  }

 private:
  /// Throws std::runtime_error, naming offset `at`, unless the column is
  /// one push() could have built.
  void check(std::size_t at) const;

  std::vector<std::int64_t> values_;  ///< distinct, first-seen order, <= 255
  std::vector<std::uint8_t> codes_;   ///< per slice: a value's index, or kSpill
  std::vector<std::int64_t> spill_;   ///< per kSpill code, in slice order
};

/// One device's whole mutable state, and what a FleetSnapshot stores per
/// device: the partial DeviceResult, the battery/policy lane, the load
/// cursor, the processor checkpoint (a shared save_state blob; live
/// snapshot devices only), and — in a bounded segment only — the per-slice
/// busy times, buffered until the final segment (the busy_us Summary is fed
/// device-major and must not interleave with other devices).
/// begin_slice/end_slice are the only per-slice step: the exact slice
/// (Device::place, then the slice) and the memo replay (FleetSimulator) both
/// go through them, so every policy rule exists once.
struct DeviceProgress {
  DeviceResult result;
  int next_k = 0;           ///< next local step (slice) to execute
  bool started = false;     ///< start() ran; result header is valid
  bool done = false;        ///< stream complete (drained, left, or exhausted)
  std::uint8_t mode = 0;    ///< hysteresis mode (DeviceMode)
  std::uint32_t switches = 0;
  std::uint8_t tier = 255;  ///< FrontierTier applied (255 = none yet; SLO only)
  int buffered = 0;         ///< arrivals awaiting execution in the next slice
  double charge_pj = 0.0;   ///< exact battery charge bits
  /// Busy time per executed slice, filled by bounded segments only; empty
  /// while a final segment runs (its samples go straight into busy_us).
  BusyColumn busy;
  /// The save_state blob of the processor state the device stopped at —
  /// shared with every device (and memo state) at the same state. Set at a
  /// checkpoint for live devices only.
  StateBlob proc_blob;
  /// The arrival cursor: loads.next() is the arrival of step next_k while
  /// next_k < loads.size(). Bound to the spec and envelope of the call
  /// advancing the device; at a checkpoint it keeps only its generator
  /// words (an unbound LoadStream, stored for live devices of randomized
  /// shapes) and the resuming call rebuilds it at next_k.
  workload::LoadStream loads;

  /// Resets to step 0 of `spec`'s arrival stream, scaled by the fleet
  /// envelope `env` (empty = none; must outlive the device's run): the
  /// result header, the initial battery charge, a fresh lane and the load
  /// cursor restarted, with no processor checkpoint. The sample buffer and
  /// the cursor keep their capacity. `slice_ps` is the processor's slice length T.
  void start(const FleetSpec& fleet, const DeviceSpec& spec,
             std::int64_t slice_ps, std::span<const double> env);

  /// First half of the step for slice `next_k`: the charging window, then
  /// the hysteresis mode and — when `slo` (the frontier policy is active) —
  /// the frontier tier, both decided on the SoC the device wakes into.
  /// Returns true when the tier changed (the caller installs its placement).
  bool begin_slice(const FleetSpec& fleet, const DeviceSpec& spec, bool slo);

  /// The memo key, within the processor state's row, of the slice
  /// begin_slice just planned. `slo_ps` is the device's active SLO (0 =
  /// none; the tier then stays out of the key).
  [[nodiscard]] SliceKey slice_key(std::int64_t slo_ps) const;

  /// Second half: drains `out.energy_pj` (clamped to the charge), counts the
  /// slice and bins it into `agg.slice_bins`, accounts its busy time,
  /// buffers the slice's arrivals (from `loads`), and ends the stream on
  /// exhaustion — the arrivals left in the cursor are dropped — or after the
  /// last step (an early leaver drops its final buffer). Without
  /// `busy_index` (a final segment, or Device::run) the busy time goes
  /// straight into `agg.busy_us`, so the caller must have fed the device's
  /// stored column first; with it (a bounded segment) the busy time is
  /// pushed onto `busy` through the index, which the caller bound to `busy`.
  void end_slice(const SliceOutcome& out, FleetAggregate& agg, BusyColumn::Index* busy_index);
};

class Device {
 public:
  /// `model` must be fleet.resolved_models()[spec.model_index] (the caller
  /// resolves once per run, not once per device); `lut_cache` may be null
  /// (private LUT build). The Processor is constructed here: the
  /// fresh-construction reference the simulator's pooled path must match
  /// byte for byte (tests/test_oracle.cpp).
  Device(const FleetSpec& fleet, const DeviceSpec& spec, const nn::Model& model,
         placement::LutCache* lut_cache);

  /// The simulator's variant: runs on `proc`, a pooled processor built from
  /// the same (fleet config, model) pair, already reset() by the caller.
  /// `proc` must outlive the Device.
  /// Results are bit-identical to the owning constructor (reset ==
  /// fresh construction; pinned by tests/test_oracle.cpp).
  Device(const FleetSpec& fleet, const DeviceSpec& spec, const nn::Model& model,
         sys::Processor& proc);

  /// Executes the device's whole stream (loads streamed from the spec with
  /// the fleet's envelope applied). Its slices and totals are accounted
  /// into `agg` (may be null). Call once.
  DeviceResult run(FleetAggregate* agg);

  /// Installs the tier or low-power placement DeviceProgress::begin_slice
  /// decided (returning `tier_changed`) for the slice planned on `p`, on
  /// this device's processor. A whole run is start, then begin_slice,
  /// place, the slice and end_slice until done; the simulator interleaves
  /// slices with memo replay, making the processor live (reset, or
  /// Processor::restore of the device's blob) before place.
  void place(const DeviceProgress& p, bool tier_changed);

  /// Whether the device runs the SLO frontier policy: it has an SLO and its
  /// LUT (null = not HH-PIM) has a feasible entry for it. The flag
  /// begin_slice takes.
  [[nodiscard]] static bool slo_active(const placement::AllocationLut* lut,
                                       std::int64_t slo_ps);

  /// The SystemConfig a device of `fleet` runs under: the device's firmware
  /// entry with the simulator-resolved LUT cache plugged in. What both
  /// constructors build from — exposed so FleetSimulator's processor pool
  /// constructs identical processors.
  [[nodiscard]] static sys::SystemConfig device_config(
      const FleetSpec& fleet, const DeviceSpec& spec,
      placement::LutCache* lut_cache);

  /// Single-firmware convenience (firmware entry 0 == FleetSpec::config).
  [[nodiscard]] static sys::SystemConfig device_config(
      const FleetSpec& fleet, placement::LutCache* lut_cache);

  [[nodiscard]] const sys::Processor& processor() const { return *proc_; }

 private:
  /// Resolves the three frontier-tier allocations once per device when
  /// slo_active(lut, SLO); a no-op otherwise (slo_ok_ stays false).
  void init_slo_tiers();

  const FleetSpec& fleet_;
  const DeviceSpec& spec_;
  const nn::Model& model_;
  std::optional<sys::Processor> owned_;  ///< engaged by the owning constructor
  sys::Processor* proc_;                 ///< the processor this device runs on
  placement::Allocation low_power_alloc_;
  // SLO frontier picks, resolved once from the processor's LUT: [balanced,
  // performance, saver] indexed by FrontierTier.
  std::array<placement::Allocation, 3> slo_allocs_{};
  bool slo_ok_ = false;  ///< tiers resolved: the SLO policy is active
};

}  // namespace hhpim::fleet
