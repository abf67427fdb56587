// The allocation_state look-up table (paper §III-B).
//
// Built once at application initialization, the LUT maps each quantized time
// constraint t_constraint in (0, T] to the energy-optimal weight allocation
// across the four spaces. At run time the scheduler just indexes it.
//
// Construction runs Algorithms 1 & 2 per LUT entry. The per-block energy
// fed to the DP is  e_i(tc) = uses * E_dyn(i) + P_retention(i) * tc  — the
// dynamic cost of the task plus the task's wall-clock share of the SRAM
// retention leakage. (With purely constant e_i the optimizer would
// degenerate to all-SRAM, since SRAM dominates MRAM in both speed and
// per-access energy; the retention term is what makes MRAM attractive at
// relaxed deadlines, which is exactly the behaviour of the paper's Fig. 6.)
//
// Resolution is limited (the paper's "1 % of the time slice" rule) by
// pick_resolution(): block/step counts are chosen so the estimated
// construction cost on the edge device stays under budget.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "placement/cost_model.hpp"
#include "placement/knapsack.hpp"
#include "placement/pareto.hpp"

namespace hhpim::placement {

/// Build parameters. Preconditions (build() throws std::invalid_argument
/// otherwise): slice > 0, total_weights > 0, t_entries > 0,
/// 0 < k_blocks <= kMaxDpBlocks, and slice must span at least t_entries
/// picoseconds.
struct LutParams {
  Time slice;                  ///< T: the time-slice length
  std::uint64_t total_weights = 0;  ///< K, in weights (= bytes for INT8)
  int t_entries = 128;         ///< LUT entries over (0, T]
  int k_blocks = 128;          ///< weight-block resolution
};

struct LutEntry {
  Time t_constraint;
  bool feasible = false;
  Allocation alloc;            ///< weights per space (sums to K when feasible)
  Energy predicted_task_energy;
  /// Non-dominated (energy, latency, SRAM-pressure) trade-off points for this
  /// t_constraint (pareto.hpp), built by re-combining the entry's cluster DP
  /// tables at tighter time budgets. Empty iff infeasible; its strict
  /// min-energy point is (`alloc`, `predicted_task_energy`) bit-exactly.
  std::vector<ParetoPoint> frontier;
};

/// Immutable after build(); lookups are const and safe to share across
/// threads without synchronization. Grid runs share one instance per
/// (model, arch, cost, resolution) via LutCache (lut_cache.hpp).
class AllocationLut {
 public:
  /// Builds the LUT: per entry, an O(1) feasibility precheck (the peak
  /// boundary), then Algorithms 1 & 2 for feasible entries only. An entry
  /// reads about 28 rows of each of its two cluster tables: the anchor row
  /// internal_steps = 16 * k_blocks, the frontier's budget-search probes and
  /// its 16 budgets. The rows are planned before the tables exist, from the
  /// closed-form bound max_feasible_blocks, and each table is built with
  /// only those rows' dependency cones (ClusterDpTable's row-set kernel) —
  /// about a quarter of the (internal_steps + 1) * (k_blocks + 1) cells of
  /// a full table, fewer past its saturation row. An entry whose search
  /// leaves the plan (the paper's count[] trace made a budget the bound
  /// admits DP-infeasible) is rebuilt from full tables, so every entry is
  /// bit-identical to an all-rows build. Energies in pJ, times in integer ps.
  static AllocationLut build(const CostModel& model, const LutParams& params);

  /// The entry for the largest tabulated t_constraint <= `tc` (so the
  /// returned allocation is guaranteed feasible for `tc`); clamps to the
  /// first/last entry outside the domain.
  [[nodiscard]] const LutEntry& lookup(Time tc) const;

  /// Like lookup(), but if the floor entry is infeasible (tc sits inside or
  /// just left of the peak-performance boundary), returns the first feasible
  /// entry — the peak placement — or nullptr if the whole table is
  /// infeasible. The caller re-checks the real task time against tc.
  [[nodiscard]] const LutEntry* lookup_or_peak(Time tc) const;

  [[nodiscard]] const std::vector<LutEntry>& entries() const { return entries_; }
  [[nodiscard]] Time slice() const { return params_.slice; }
  [[nodiscard]] const LutParams& params() const { return params_; }
  /// Smallest feasible t_constraint (the peak-performance point; left of it
  /// is the paper's grey "Not Possible" region).
  [[nodiscard]] Time peak_t_constraint() const;

 private:
  LutParams params_;
  std::vector<LutEntry> entries_;
};

namespace detail {

/// How solve_entry builds an entry's cluster tables: only the rows the
/// entry is planned to read (with the all-rows fallback), or every row.
enum class RowPlan { kPlanned, kAllRows };

/// The block/step grid shared by all entries of one LUT.
struct EntryGrid {
  int k_total = 0;                  ///< blocks in the model
  int internal_steps = 0;           ///< DP steps over each t_constraint
  std::uint64_t block = 0;          ///< weights per block
  std::uint64_t total_weights = 0;  ///< K, in weights
};

struct EntrySolve {
  LutEntry entry;
  bool fell_back = false;  ///< a planned build left its plan and was rebuilt
};

/// One LUT entry from its quantized cluster items. AllocationLut::build
/// runs it with RowPlan::kPlanned; kAllRows is the reference for tests.
[[nodiscard]] EntrySolve solve_entry(const CostModel& model, const ClusterItems& hp_items,
                                     const ClusterItems& lp_items, const EntryGrid& grid,
                                     Time tc, RowPlan plan);

/// The entries AllocationLut::build(model, params) holds, built with `plan`.
[[nodiscard]] std::vector<LutEntry> build_entries(const CostModel& model,
                                                  const LutParams& params, RowPlan plan);

}  // namespace detail

/// The paper's resolution limiter: picks (t_entries, k_blocks) so that LUT
/// construction costs at most `budget_fraction` (default 1 %) of the time
/// slice on a device that evaluates `cells_per_us` DP cells per microsecond.
struct ResolutionChoice {
  int t_entries;
  int k_blocks;
  double estimated_us;  ///< estimated on-device construction time
};
[[nodiscard]] ResolutionChoice pick_resolution(Time slice, double budget_fraction = 0.01,
                                               double cells_per_us = 1000.0,
                                               int max_resolution = 512);

}  // namespace hhpim::placement
