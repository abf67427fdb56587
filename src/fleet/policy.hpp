// Online battery-driven placement adaptation — the per-device control loop
// of the fleet simulator.
//
// The paper's HH-PIM optimizes placement *within* a power mode: every slice
// the LUT picks the minimum-energy allocation meeting t_constraint (§III-B).
// The fleet layer closes the loop one level up: a device watches its battery
// state of charge (SoC) and switches the whole placement *mode* —
//
//   kDynamic   : the HH-PIM LUT policy, adapting placement per slice;
//   kLowPower  : a pinned MRAM-balanced placement (every SRAM bank
//                power-gated; sys::balanced_mram_split), slower but with
//                minimum leakage — what an edge device does when the battery
//                runs low.
//
// The switch uses hysteresis: at or below `low_soc` the device drops to
// kLowPower; it returns to kDynamic only at or above `high_soc`. Exact
// threshold hits switch (<=, >=), so a device sitting precisely on the
// threshold behaves deterministically.
//
// All methods are O(1); instances are per-device and not thread-safe.
#pragma once

#include <cstdint>

namespace hhpim::fleet {

enum class DeviceMode : std::uint8_t { kDynamic = 0, kLowPower };

[[nodiscard]] const char* to_string(DeviceMode m);

/// Which point of a LUT entry's Pareto frontier an SLO-aware device pins
/// (placement/pareto.hpp; only meaningful when DeviceSpec::latency_slo_ps is
/// set). Numeric values are part of the snapshot encoding (DeviceProgress::
/// tier) and of the memo's SliceKey — append only.
enum class FrontierTier : std::uint8_t {
  kBalanced = 0,     ///< min energy subject to the SLO (the frontier anchor)
  kPerformance = 1,  ///< min latency — battery is rich, buy headroom
  kSaver = 2,        ///< min energy outright — SLO waived for battery survival
};

[[nodiscard]] const char* to_string(FrontierTier t);

struct AdaptiveThresholds {
  /// SoC at or below which the device pins the low-power static placement.
  double low_soc = 0.30;
  /// SoC at or above which it resumes dynamic HH-PIM placement. Must be
  /// >= low_soc (equal thresholds are allowed: zero hysteresis).
  double high_soc = 0.50;
};

/// One hysteresis step, the only place the mode rule lives: from `mode`,
/// with the SoC in [0, 1] observed at the slice boundary, returns the mode
/// for the coming slice and counts a transition into `switches`.
[[nodiscard]] DeviceMode next_mode(DeviceMode mode, double soc,
                                   const AdaptiveThresholds& thresholds,
                                   std::uint32_t& switches);

/// The frontier tier for one slice, from the hysteresis mode and the SoC
/// observed at the slice boundary. Pure — called from the one per-slice
/// step (DeviceProgress::begin_slice) that both the exact path and the
/// memo replay take:
///   kSaver        iff mode == kLowPower (inherits the mode hysteresis);
///   kPerformance  iff soc >= high_soc (exact threshold, like update());
///   kBalanced     otherwise.
[[nodiscard]] FrontierTier select_tier(DeviceMode mode, double soc,
                                       const AdaptiveThresholds& thresholds);

/// SoC-threshold mode controller with hysteresis. Feed it the SoC observed
/// at each slice boundary; it returns the mode the coming slice should run
/// in and counts transitions.
class AdaptivePolicy {
 public:
  /// Throws std::invalid_argument unless 0 <= low_soc <= high_soc <= 1.
  explicit AdaptivePolicy(AdaptiveThresholds thresholds);

  /// Advances the controller with the SoC in [0, 1] observed now; returns
  /// the mode for the next slice.
  DeviceMode update(double soc);

  [[nodiscard]] DeviceMode mode() const { return mode_; }
  /// Number of mode transitions so far (either direction).
  [[nodiscard]] std::uint32_t switches() const { return switches_; }

 private:
  AdaptiveThresholds thresholds_;
  DeviceMode mode_ = DeviceMode::kDynamic;
  std::uint32_t switches_ = 0;
};

}  // namespace hhpim::fleet
