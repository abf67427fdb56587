#include "fleet/policy.hpp"

#include <stdexcept>

namespace hhpim::fleet {

const char* to_string(DeviceMode m) {
  switch (m) {
    case DeviceMode::kDynamic: return "dynamic";
    case DeviceMode::kLowPower: return "low-power";
  }
  return "?";
}

const char* to_string(FrontierTier t) {
  switch (t) {
    case FrontierTier::kBalanced: return "balanced";
    case FrontierTier::kPerformance: return "performance";
    case FrontierTier::kSaver: return "saver";
  }
  return "?";
}

FrontierTier select_tier(DeviceMode mode, double soc,
                         const AdaptiveThresholds& thresholds) {
  if (mode == DeviceMode::kLowPower) return FrontierTier::kSaver;
  if (soc >= thresholds.high_soc) return FrontierTier::kPerformance;
  return FrontierTier::kBalanced;
}

AdaptivePolicy::AdaptivePolicy(AdaptiveThresholds thresholds)
    : thresholds_(thresholds) {
  if (thresholds.low_soc < 0.0 || thresholds.high_soc > 1.0 ||
      thresholds.low_soc > thresholds.high_soc) {
    throw std::invalid_argument(
        "AdaptivePolicy: need 0 <= low_soc <= high_soc <= 1");
  }
}

DeviceMode next_mode(DeviceMode mode, double soc,
                     const AdaptiveThresholds& thresholds,
                     std::uint32_t& switches) {
  if (mode == DeviceMode::kDynamic && soc <= thresholds.low_soc) {
    ++switches;
    return DeviceMode::kLowPower;
  }
  if (mode == DeviceMode::kLowPower && soc >= thresholds.high_soc) {
    ++switches;
    return DeviceMode::kDynamic;
  }
  return mode;
}

DeviceMode AdaptivePolicy::update(double soc) {
  mode_ = next_mode(mode_, soc, thresholds_, switches_);
  return mode_;
}

}  // namespace hhpim::fleet
