// Algorithm 1 (KNAPSACK_MIN_ENERGY) and Algorithm 2 (SET_ALLOCATION_STATE).
//
// The placement problem is a hybrid unbounded / multi-choice knapsack
// (paper §III-A): choose how many weight blocks x_i go to each storage space
// to minimize energy, subject to Σ t_i·x_i <= t_constraint and Σ x_i = k.
// Because the two clusters execute in parallel while MRAM/SRAM inside a
// cluster serialize, Algorithm 1 builds one DP table per cluster (over its
// n/2 = 2 spaces) and Algorithm 2 combines the two tables, minimizing
// dp_hp[t][k_hp] + dp_lp[t][K - k_hp] over k_hp.
//
// Work is done in *blocks* of weights and *steps* of time (the paper's
// resolution limiting, §III-B); conversions live in lut.cpp. Throughout this
// header: time is in integer DP steps (1 step = the caller's quantum, see
// AllocationLut), energy in picojoules, capacities in blocks.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>

namespace hhpim::placement {

/// One storage space as seen by the DP, costs per block.
///
/// Units: `time_steps` is the ceil-quantized processing time of one block in
/// DP steps (precondition: >= 1); `energy_pj` the per-block energy in pJ,
/// including the task's amortized share of retention leakage (see lut.cpp);
/// `cap_blocks` the space capacity in blocks (0 = space absent, never used).
struct DpItem {
  int time_steps = 1;        ///< quantized processing time of one block
  double energy_pj = 0.0;    ///< energy of one block (incl. amortized leakage)
  int cap_blocks = 0;        ///< capacity of the space in blocks
};

/// Per-cluster spaces in paper order: [0] = MRAM, [1] = SRAM.
using ClusterItems = std::array<DpItem, 2>;

inline constexpr double kInfEnergy = std::numeric_limits<double>::infinity();

/// The largest k_blocks a ClusterDpTable takes: block counts trace through
/// uint16 counters.
inline constexpr int kMaxDpBlocks = 65535;

/// The largest block count k <= `k_max` this cluster can process within
/// `t_steps`: its time-minimal schedule fills the faster space first, capped
/// by capacity. O(1). This bounds the DP's feasibility frontier from above,
/// one way only: ClusterDpTable::feasible(t_steps, k) implies
/// k <= max_feasible_blocks(...), but not conversely — the paper's count[]
/// trace keeps one best path per cell, so a cell whose cheapest path used up
/// the SRAM capacity can leave a larger k infeasible although a schedule
/// fits (tests/test_knapsack.cpp pins a counterexample). As a rejection it
/// is exact: k above the bound is infeasible in the DP. The LUT builder uses
/// it to reject infeasible entries and budget-search probes without reading
/// a table. Preconditions: t_steps, k_max >= 0 and every item's
/// time_steps >= 1.
[[nodiscard]] int max_feasible_blocks(const ClusterItems& items, int t_steps, int k_max);

/// The DP table of one cluster: dp[t][k] = minimum energy to place exactly k
/// blocks in this cluster within t time steps (infinity if infeasible).
///
/// build() is Algorithm 1 specialized to the n/2 = 2 spaces of one cluster:
/// the MRAM-only level has the closed form dp_0[t][k] = k·e_mram (feasible
/// iff k <= cap_mram and k·dt_mram <= t), so only the SRAM level runs as an
/// actual DP: dp[t][k] = min(dp_0[t][k], dp[t - dt_sram][k - 1] + e_sram).
///
/// A table stores only the rows it is asked for. Row t reads only row
/// t - dt_sram, one block down, so the kernel walks each SRAM-chain residue
/// class (t mod dt_sram) bottom-up to the highest requested row in it,
/// through two scratch rows, and stores the requested rows. A walked row t
/// below the next requested row t_next of its class gets only the cells in
/// that row's dependency cone, k <= k_cap - (t_next - t)/dt_sram, and only
/// those below the feasibility bound k_ub(t) = max_feasible_blocks(t), which
/// are the only cells that can be finite; rows whose cone is empty are
/// skipped. Every requested row is bit-identical to the same row of the full
/// table. The all-rows build() is the same kernel with every row requested.
///
/// The row kernel is branch-free over `__restrict` rows, so the compiler
/// vectorizes it: every cell of a row lies on its own SRAM chain, the row is
/// the vector axis, and a cell computes both options and selects one with
/// the paper's test, so NaN, inf and ties resolve as in the literal loop.
/// Along a walk, k_ub(t), the MRAM budget and the cone bound advance with t
/// instead of being divided out per row. One portable kernel serves every
/// CPU; no instruction-set flag is needed.
///
/// Rows stop at the saturation row R = min(t_steps, k_cap · max(dt_mram,
/// dt_sram)), k_cap = min(k_blocks, cap_mram + cap_sram): every condition
/// the recurrence tests at (t, k) — the feasibility bound, the MRAM budget
/// k·dt_mram <= t, and the existence of row t - j·dt_sram along the SRAM
/// chain — is c <= t with c <= R, so every row past R equals row R
/// (energies and traced splits alike); requests and lookups past R read
/// row R. Move-only.
/// Preconditions: t_steps, k_blocks >= 0; every item's time_steps >= 1 and
/// every requested row in [0, t_steps]; k_blocks <= kMaxDpBlocks (block
/// counts trace through uint16 counters). build() throws
/// std::invalid_argument when one fails.
class ClusterDpTable {
 public:
  /// Algorithm 1, every row. O(min(t_steps, k_cap·max dt) * k_blocks) cells.
  static ClusterDpTable build(const ClusterItems& items, int t_steps, int k_blocks);
  /// Algorithm 1, only `rows` (any order, duplicates allowed): the cells in
  /// the dependency cones of the requested rows.
  static ClusterDpTable build(const ClusterItems& items, int t_steps, int k_blocks,
                              std::span<const int> rows);

  /// Whether row `t` (0 <= t <= t_steps()) was requested, or saturates into
  /// a requested row.
  [[nodiscard]] bool has_row(int t) const { return row_of_[saturated(t)] >= 0; }

  /// Minimum energy (pJ) to place exactly `k` blocks within `t` steps;
  /// kInfEnergy when infeasible. Precondition: has_row(t),
  /// 0 <= k <= k_blocks().
  [[nodiscard]] double energy(int t, int k) const { return dp_[index(t, k)]; }
  [[nodiscard]] bool feasible(int t, int k) const { return energy(t, k) < kInfEnergy; }
  /// Row t's energies, k = 0..k_blocks(). Precondition: has_row(t).
  [[nodiscard]] std::span<const double> energies(int t) const {
    return {dp_.get() + index(t, 0), static_cast<std::size_t>(k_blocks_) + 1};
  }

  /// Blocks placed in (MRAM, SRAM) on the optimal path for (t, k).
  /// Meaningful only when feasible(t, k); returns (k, 0) otherwise.
  /// Precondition: has_row(t).
  [[nodiscard]] std::pair<int, int> split(int t, int k) const;

  [[nodiscard]] int t_steps() const { return t_steps_; }
  [[nodiscard]] int k_blocks() const { return k_blocks_; }

 private:
  [[nodiscard]] std::size_t saturated(int t) const {
    return static_cast<std::size_t>(std::min(t, last_row_));
  }
  [[nodiscard]] std::size_t index(int t, int k) const {
    return static_cast<std::size_t>(row_of_[saturated(t)]) *
               static_cast<std::size_t>(k_blocks_ + 1) +
           static_cast<std::size_t>(k);
  }
  int t_steps_ = 0;
  int k_blocks_ = 0;
  int last_row_ = 0;                        // the saturation row R
  std::unique_ptr<int[]> row_of_;           // R+1 entries: stored row index, or -1
  std::unique_ptr<double[]> dp_;            // stored rows x (k_blocks+1)
  std::unique_ptr<std::uint16_t[]> cnt_;    // blocks in SRAM (space 1) on best path
};

/// Result of Algorithm 2 at one time constraint.
struct CombineResult {
  bool feasible = false;
  int k_hp = 0;          ///< blocks assigned to the HP cluster
  int k_lp = 0;
  double energy_pj = kInfEnergy;
};

/// Algorithm 2 inner loop: optimal (k_hp, k_lp) for `k_total` blocks within
/// `t` steps: the lowest k_hp whose energy sum is strictly below every
/// earlier one, skipping splits with an infinite or NaN operand.
/// O(k_total), over the k_hp range both tables hold.
/// Preconditions: both tables have row `t`; `k_total` >= 0 (splits beyond a
/// table's k_blocks() are skipped).
[[nodiscard]] CombineResult combine_clusters(const ClusterDpTable& hp,
                                             const ClusterDpTable& lp,
                                             int k_total, int t);

}  // namespace hhpim::placement
