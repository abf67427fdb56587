// Placement policies and the per-slice scheduling decision.
//
// Every architecture runs the same slice loop; what differs is how weights
// are placed:
//   * Baseline-PIM  : everything in HP-SRAM (the only storage it has).
//   * Hetero-PIM    : fixed latency-balanced split between HP-SRAM and
//                     LP-SRAM (set once for peak load, never adapted).
//   * Hybrid-PIM    : everything in HP-MRAM; SRAM serves as the I/O buffer
//                     (the conventional H-PIM weight placement).
//   * HH-PIM        : dynamic — each slice consults the allocation_state LUT
//                     with t_constraint = (T - t_move) / n_tasks, iterating
//                     once on the movement overhead (paper §III-B).
#pragma once

#include <memory>

#include "common/units.hpp"
#include "placement/cost_model.hpp"
#include "placement/lut.hpp"
#include "placement/movement.hpp"

namespace hhpim::sys {

/// What the policy decided for one slice.
struct SliceDecision {
  placement::Allocation alloc;       ///< placement to use this slice
  placement::MovementPlan plan;      ///< movement from the previous placement
  Time movement_time;                ///< estimated movement overhead
  Energy movement_energy;
  Time t_constraint;                 ///< per-task budget after movement
  bool feasible = true;              ///< false if even peak placement misses T
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Decides the placement for a slice executing `n_tasks` buffered tasks,
  /// transitioning from `current`.
  ///
  /// Contract: decide() must be a pure function of (current, n_tasks) and
  /// construction-time state — no per-call mutable state.
  /// sys::Processor::save_state() records no policy state, so the fleet's
  /// outcome memo (fleet::OutcomeCache) and checkpoint
  /// snapshots (fleet::FleetSnapshot) would silently diverge from a stateful
  /// policy. Both shipped policies (StaticPolicy, DynamicLutPolicy) are
  /// pure.
  virtual SliceDecision decide(const placement::Allocation& current, int n_tasks) = 0;

  /// Initial placement at application start.
  [[nodiscard]] virtual placement::Allocation initial() = 0;
};

/// Fixed placement (Baseline / Hetero / Hybrid).
class StaticPolicy final : public PlacementPolicy {
 public:
  StaticPolicy(placement::Allocation fixed, Time slice);

  SliceDecision decide(const placement::Allocation& current, int n_tasks) override;
  placement::Allocation initial() override { return fixed_; }

 private:
  placement::Allocation fixed_;
  Time slice_;
};

/// Dynamic LUT-driven placement (HH-PIM).
///
/// The LUT is held by shared_ptr<const …>: it is immutable after build and
/// may be shared with other Processors through placement::LutCache (see
/// docs/ARCHITECTURE.md). The policy co-owns it, so its LUT outlives the
/// cache it came from.
class DynamicLutPolicy final : public PlacementPolicy {
 public:
  /// `lut` must be non-null (throws std::invalid_argument otherwise).
  DynamicLutPolicy(std::shared_ptr<const placement::AllocationLut> lut,
                   placement::CostModel model,
                   placement::MovementParams movement = {});
  /// Convenience for callers that build a private LUT (wraps it unshared).
  DynamicLutPolicy(placement::AllocationLut lut, placement::CostModel model,
                   placement::MovementParams movement = {});

  SliceDecision decide(const placement::Allocation& current, int n_tasks) override;
  placement::Allocation initial() override;

  [[nodiscard]] const placement::AllocationLut& lut() const { return *lut_; }
  [[nodiscard]] const std::shared_ptr<const placement::AllocationLut>& lut_ptr() const {
    return lut_;
  }
  /// The exact (unquantized) peak-performance placement: latency-balanced
  /// across HP-SRAM and LP-SRAM — the green point of the paper's Fig. 6.
  [[nodiscard]] const placement::Allocation& peak_allocation() const { return peak_; }

 private:
  std::shared_ptr<const placement::AllocationLut> lut_;
  placement::CostModel model_;
  placement::MovementParams movement_;
  placement::Allocation peak_;
};

/// Latency-balanced split of `total` weights between HP-SRAM and LP-SRAM
/// (the Hetero-PIM static placement; also HH-PIM's peak point). Minimizes
/// max(t_hp, t_lp) over integer splits.
[[nodiscard]] placement::Allocation balanced_sram_split(const placement::CostModel& m,
                                                        std::uint64_t total);

/// Latency-balanced split of `total` weights between HP-MRAM and LP-MRAM
/// (all in HP-MRAM when there is no LP cluster) — the minimum-leakage
/// placement: every SRAM bank can power-gate. This is the "low-power static"
/// mode the fleet's battery-driven adaptation pins via
/// sys::Processor::set_placement_override; it is also the purple MRAM-only
/// point of the paper's Fig. 6.
[[nodiscard]] placement::Allocation balanced_mram_split(const placement::CostModel& m,
                                                        std::uint64_t total);

}  // namespace hhpim::sys
