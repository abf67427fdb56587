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

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
};

namespace detail {

/// How build_entries builds cluster tables: only the rows each solve reads
/// (with the frontier's all-rows fallback), or every row (the reference).
enum class RowPlan { kPlanned, kAllRows };

/// The block/step grid shared by all entries of one LUT.
struct EntryGrid {
  int k_total = 0;                  ///< blocks in the model
  int internal_steps = 0;           ///< DP steps over each t_constraint
  std::uint64_t block = 0;          ///< weights per block
  std::uint64_t total_weights = 0;  ///< K, in weights
};

}  // namespace detail

/// Entries are immutable after build(); lookups are const and safe to share
/// across threads without synchronization. Grid runs share one instance per
/// (model, arch, cost, resolution) via LutCache (lut_cache.hpp).
class AllocationLut {
 public:
  /// Builds the LUT's anchors: per entry, an O(1) feasibility precheck (the
  /// peak boundary), then Algorithms 1 & 2 for feasible entries only, at the
  /// entry's own budget. Each cluster table is built with the single row
  /// internal_steps = 16 * k_blocks (ClusterDpTable's row-set kernel), which
  /// is bit-identical to the same row of a full table. No frontier is built
  /// here; frontier() builds one the first time it is read. Energies in pJ,
  /// times in integer ps.
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

  /// Non-dominated (energy, latency, SRAM-pressure) trade-off points for
  /// `entry`, which must be one of entries() (std::invalid_argument
  /// otherwise). Built by re-combining the entry's cluster DP tables at
  /// tighter time budgets (pareto.hpp) on the entry's first read: about 28
  /// rows of each table — the anchor row, the budget search's probes and
  /// the 16 budgets — planned before the tables exist from the closed-form
  /// bound max_feasible_blocks. A frontier whose search leaves the plan (the
  /// paper's count[] trace made a budget the bound admits DP-infeasible) is
  /// rebuilt from full tables, so every frontier is bit-identical to an
  /// all-rows build. Empty iff the entry is infeasible; its strict
  /// min-energy point is (`alloc`, `predicted_task_energy`) bit-exactly.
  /// Thread-safe: concurrent first readers wait for one build, and later
  /// reads take no lock.
  [[nodiscard]] const std::vector<ParetoPoint>& frontier(const LutEntry& entry) const;

  /// Frontiers frontier() has built so far (infeasible entries build none).
  [[nodiscard]] std::size_t frontiers_built() const {
    return frontiers_->built.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::vector<LutEntry>& entries() const { return entries_; }
  [[nodiscard]] Time slice() const { return params_.slice; }
  [[nodiscard]] const LutParams& params() const { return params_; }
  /// Smallest feasible t_constraint (the peak-performance point; left of it
  /// is the paper's grey "Not Possible" region).
  [[nodiscard]] Time peak_t_constraint() const;

 private:
  /// One entry's frontier, built at most once.
  struct FrontierSlot {
    std::once_flag once;
    std::vector<ParetoPoint> points;
  };
  struct Frontiers {
    explicit Frontiers(std::size_t n) : slots(n) {}
    std::vector<FrontierSlot> slots;  ///< one per entry
    std::atomic<std::size_t> built{0};
  };

  LutParams params_;
  CostModel model_;         ///< what frontier() re-solves an entry with
  detail::EntryGrid grid_;
  std::vector<LutEntry> entries_;
  std::unique_ptr<Frontiers> frontiers_;
};

namespace detail {

/// One entry's anchor from its quantized cluster items: Algorithm 2 at the
/// entry's own budget, on cluster tables built with only that row
/// (internal_steps).
[[nodiscard]] LutEntry solve_anchor(const CostModel& model, const ClusterItems& hp_items,
                                    const ClusterItems& lp_items, const EntryGrid& grid,
                                    Time tc);

struct FrontierSolve {
  std::vector<ParetoPoint> frontier;
  bool fell_back = false;  ///< the search left its planned rows (all rows rebuilt)
};

/// The frontier of `entry`, which solve_anchor returned for the same inputs:
/// the rows the frontier is planned to read, with the all-rows fallback.
[[nodiscard]] FrontierSolve solve_frontier(const CostModel& model,
                                           const ClusterItems& hp_items,
                                           const ClusterItems& lp_items,
                                           const EntryGrid& grid, const LutEntry& entry);

struct EntrySolve {
  LutEntry entry;
  std::vector<ParetoPoint> frontier;
  bool fell_back = false;  ///< the frontier's planned build left its plan
};

/// The reference for tests: one entry's anchor and frontier, both read from
/// full cluster tables.
[[nodiscard]] EntrySolve solve_all_rows(const CostModel& model, const ClusterItems& hp_items,
                                        const ClusterItems& lp_items, const EntryGrid& grid,
                                        Time tc);

/// Every entry of AllocationLut::build(model, params) with its frontier:
/// kPlanned as the LUT solves them (solve_anchor, solve_frontier), kAllRows
/// from full tables (solve_all_rows).
[[nodiscard]] std::vector<EntrySolve> build_entries(const CostModel& model,
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
