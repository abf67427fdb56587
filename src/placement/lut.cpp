#include "placement/lut.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

namespace hhpim::placement {

namespace {

/// Quantized per-block DP item for one space at a given time constraint.
DpItem make_item(const SpaceCost& sc, std::uint64_t block_weights, Time t_step, Time tc) {
  DpItem item;
  if (sc.capacity_weights == 0) {
    item.time_steps = 1;
    item.cap_blocks = 0;
    return item;
  }
  const double block_time_ps =
      sc.time_per_weight.as_ps() * static_cast<double>(block_weights);
  item.time_steps =
      std::max(1, static_cast<int>(std::ceil(block_time_ps / static_cast<double>(t_step.as_ps()))));
  const Energy dyn = sc.dyn_per_weight * static_cast<double>(block_weights);
  const Energy retention = (sc.leak_per_weight * static_cast<double>(block_weights)) * tc;
  item.energy_pj = (dyn + retention).as_pj();
  item.cap_blocks = static_cast<int>(sc.capacity_weights / block_weights);
  return item;
}

/// Turns a combine split at budget `t` back into a weight allocation —
/// blocks scaled by the block size, with the rounding overshoot trimmed from
/// the largest shares (fewer weights can only reduce time and energy). The
/// legacy single-answer path and the frontier sweep share this so the
/// t' = internal_steps frontier candidate IS the legacy allocation.
Allocation reconstruct_alloc(const ClusterDpTable& hp, const ClusterDpTable& lp,
                             const CombineResult& comb, int t, std::uint64_t block,
                             std::uint64_t total_weights) {
  const auto [hp_mram, hp_sram] = hp.split(t, comb.k_hp);
  const auto [lp_mram, lp_sram] = lp.split(t, comb.k_lp);
  Allocation a;
  a[Space::kHpMram] = static_cast<std::uint64_t>(hp_mram) * block;
  a[Space::kHpSram] = static_cast<std::uint64_t>(hp_sram) * block;
  a[Space::kLpMram] = static_cast<std::uint64_t>(lp_mram) * block;
  a[Space::kLpSram] = static_cast<std::uint64_t>(lp_sram) * block;
  std::uint64_t excess = a.total() - total_weights;
  while (excess > 0) {
    Space largest = Space::kHpMram;
    for (const Space sp : all_spaces()) {
      if (a[sp] > a[largest]) largest = sp;
    }
    const std::uint64_t cut = std::min(excess, a[largest]);
    a[largest] -= cut;
    excess -= cut;
  }
  return a;
}

constexpr int kFrontierSamples = 16;

/// The i-th of the frontier's budgets, evenly spaced over [t_min, steps].
int frontier_budget(int t_min, int internal_steps, int i) {
  return t_min + static_cast<int>(static_cast<std::int64_t>(internal_steps - t_min) * i /
                                  (kFrontierSamples - 1));
}

/// The frontier's budget search: bisection over [1, internal_steps] with a
/// predicate that may decline to answer (nullopt), which aborts the search.
template <class Feasible>
std::optional<int> bisect_budget(int internal_steps, Feasible feasible) {
  int lo = 1;
  int hi = internal_steps;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    const std::optional<bool> f = feasible(mid);
    if (!f) return std::nullopt;
    if (*f) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Algorithm 2 at budget `t`, or nullopt when either table lacks row t.
std::optional<CombineResult> combine_at(const ClusterDpTable& hp, const ClusterDpTable& lp,
                                        int k_total, int t) {
  if (!hp.has_row(t) || !lp.has_row(t)) return std::nullopt;
  return combine_clusters(hp, lp, k_total, t);
}

/// One entry's closed-form feasibility bound: at budget t, the combine step
/// can be feasible only if the clusters' time-minimal schedules together
/// hold k_total blocks (max_feasible_blocks). A "no" is exact, so the
/// budget search answers it without reading a table.
struct FeasibilityBound {
  const ClusterItems& hp;
  const ClusterItems& lp;
  int k_total;
  [[nodiscard]] bool operator()(int t) const {
    return max_feasible_blocks(hp, t, k_total) + max_feasible_blocks(lp, t, k_total) >= k_total;
  }
};

/// The DP rows an entry reads if every budget the bound admits is
/// DP-feasible: the anchor row, the search probes the bound admits, and the
/// frontier budgets from the search's predicted result.
std::vector<int> plan_rows(const FeasibilityBound& bound, int internal_steps) {
  std::vector<int> rows = {internal_steps};
  const int t_min = *bisect_budget(internal_steps, [&](int t) -> std::optional<bool> {
    const bool f = bound(t);
    if (f) rows.push_back(t);
    return f;
  });
  for (int i = 0; i < kFrontierSamples; ++i) {
    rows.push_back(frontier_budget(t_min, internal_steps, i));
  }
  return rows;
}

/// The frontier sweep: re-combine the entry's cluster tables at a
/// deterministic grid of tighter budgets t' in [min feasible, internal_steps]
/// — each yields the min-(linearized-)energy placement at that latency, one
/// trade-off candidate per budget. The anchor (the legacy allocation, from
/// t' = internal_steps) is kept unconditionally; other candidates survive
/// only with strictly higher re-evaluated energy, so after dominance pruning
/// the frontier's min-energy point is the legacy answer bit-exactly.
/// nullopt when a budget's row is missing from the tables.
std::optional<std::vector<ParetoPoint>> build_frontier(
    const CostModel& model, const ClusterDpTable& hp, const ClusterDpTable& lp,
    const FeasibilityBound& bound, const detail::EntryGrid& grid, Time tc,
    const ParetoPoint& anchor) {
  const int k_total = grid.k_total;
  const int internal_steps = grid.internal_steps;
  // The tightest feasible t' by bisection over O(k_total)-cost combines.
  // (The count[] trace can make feasibility non-monotone in t'; the output
  // is defined by this bisection either way.)
  const std::optional<int> t_min =
      bisect_budget(internal_steps, [&](int t) -> std::optional<bool> {
        if (!bound(t)) return false;
        const std::optional<CombineResult> comb = combine_at(hp, lp, k_total, t);
        if (!comb) return std::nullopt;
        return comb->feasible;
      });
  if (!t_min) return std::nullopt;

  std::vector<ParetoPoint> candidates;
  candidates.reserve(kFrontierSamples + 1);
  candidates.push_back(anchor);
  int prev_t = internal_steps;  // the anchor's budget — skip resampling it
  for (int i = 0; i < kFrontierSamples; ++i) {
    const int t = frontier_budget(*t_min, internal_steps, i);
    if (t == prev_t) continue;
    prev_t = t;
    const std::optional<CombineResult> comb = combine_at(hp, lp, k_total, t);
    if (!comb) return std::nullopt;
    if (!comb->feasible) continue;
    const Allocation a = reconstruct_alloc(hp, lp, *comb, t, grid.block, grid.total_weights);
    const ParetoPoint p = evaluate_point(model, a, tc);
    // The DP optimizes linearized energy; the quantized re-evaluation can
    // rank a tighter-budget placement at or below the anchor. Those are
    // dropped (unless they are the anchor's own allocation) to preserve the
    // anchor-is-min-energy invariant the scheduler and tests rely on.
    if (p.energy <= anchor.energy && !(a == anchor.alloc)) continue;
    candidates.push_back(p);
  }
  prune_to_frontier(candidates);
  return candidates;
}

/// The entry of an infeasible t_constraint.
LutEntry infeasible_entry(Time tc) {
  LutEntry entry;
  entry.t_constraint = tc;
  return entry;
}

/// Algorithm 2 at the entry's own budget on tables that hold row
/// internal_steps: feasibility, the allocation and its predicted energy.
LutEntry read_anchor(const CostModel& model, const ClusterDpTable& hp,
                     const ClusterDpTable& lp, const detail::EntryGrid& grid, Time tc) {
  const CombineResult comb = combine_clusters(hp, lp, grid.k_total, grid.internal_steps);
  if (!comb.feasible) return infeasible_entry(tc);
  LutEntry entry;
  entry.t_constraint = tc;
  entry.feasible = true;
  entry.alloc = reconstruct_alloc(hp, lp, comb, grid.internal_steps, grid.block,
                                  grid.total_weights);
  // Prediction uses the gating-quantized retention (what the hardware
  // pays); the DP itself optimizes the linearized form per Algorithm 1.
  entry.predicted_task_energy = evaluate_point(model, entry.alloc, tc).energy;
  return entry;
}

/// The block/step grid of `params`, which it validates.
detail::EntryGrid entry_grid(const LutParams& params) {
  if (params.slice <= Time::zero() || params.total_weights == 0 ||
      params.t_entries <= 0 || params.k_blocks <= 0 || params.k_blocks > kMaxDpBlocks) {
    throw std::invalid_argument("AllocationLut: bad parameters");
  }
  if (params.slice.as_ps() / params.t_entries <= 0) {
    throw std::invalid_argument("AllocationLut: slice too short for t_entries");
  }
  detail::EntryGrid grid;
  grid.total_weights = params.total_weights;
  grid.block = (params.total_weights + static_cast<std::uint64_t>(params.k_blocks) - 1) /
               static_cast<std::uint64_t>(params.k_blocks);
  grid.k_total = static_cast<int>((params.total_weights + grid.block - 1) / grid.block);
  // Internal DP time resolution: fine enough that per-block ceil rounding
  // stays below ~1/kStepsPerBlock of the constraint even if every block
  // lands in one cluster.
  constexpr int kStepsPerBlock = 16;
  grid.internal_steps = grid.k_total * kStepsPerBlock;
  return grid;
}

/// The t_constraint of entry `i` (0-based): (i + 1) quantization steps.
Time entry_tc(const LutParams& params, std::size_t i) {
  return Time::ps(params.slice.as_ps() / params.t_entries *
                  static_cast<std::int64_t>(i + 1));
}

/// One entry's quantized per-block DP items, HP cluster then LP cluster.
std::pair<ClusterItems, ClusterItems> entry_items(const CostModel& model,
                                                  const detail::EntryGrid& grid, Time tc) {
  const Time t_int = Time::ps(std::max<std::int64_t>(1, tc.as_ps() / grid.internal_steps));
  return {
      {make_item(model.at(Space::kHpMram), grid.block, t_int, tc),
       make_item(model.at(Space::kHpSram), grid.block, t_int, tc)},
      {make_item(model.at(Space::kLpMram), grid.block, t_int, tc),
       make_item(model.at(Space::kLpSram), grid.block, t_int, tc)},
  };
}

}  // namespace

namespace detail {

LutEntry solve_anchor(const CostModel& model, const ClusterItems& hp_items,
                      const ClusterItems& lp_items, const EntryGrid& grid, Time tc) {
  const int k_total = grid.k_total;
  const int steps = grid.internal_steps;
  // Early infeasibility cutoff: entries left of the peak boundary — the
  // paper's grey "Not Possible" region — are rejected without building a
  // table. Exact as a rejection: a DP-feasible split has each half within
  // its cluster's max_feasible_blocks.
  if (!FeasibilityBound{hp_items, lp_items, k_total}(steps)) return infeasible_entry(tc);
  // Algorithm 1, once per cluster, with this entry's time constraint as
  // the end of the quantized time axis; then Algorithm 2 at that budget.
  const int row[] = {steps};
  return read_anchor(model, ClusterDpTable::build(hp_items, steps, k_total, row),
                     ClusterDpTable::build(lp_items, steps, k_total, row), grid, tc);
}

FrontierSolve solve_frontier(const CostModel& model, const ClusterItems& hp_items,
                             const ClusterItems& lp_items, const EntryGrid& grid,
                             const LutEntry& entry) {
  if (!entry.feasible) return {};
  const int k_total = grid.k_total;
  const int steps = grid.internal_steps;
  const FeasibilityBound bound{hp_items, lp_items, k_total};
  const ParetoPoint anchor = evaluate_point(model, entry.alloc, entry.t_constraint);
  {
    const std::vector<int> rows = plan_rows(bound, steps);
    const auto hp = ClusterDpTable::build(hp_items, steps, k_total, rows);
    const auto lp = ClusterDpTable::build(lp_items, steps, k_total, rows);
    if (std::optional<std::vector<ParetoPoint>> frontier =
            build_frontier(model, hp, lp, bound, grid, entry.t_constraint, anchor)) {
      return {std::move(*frontier), false};
    }
  }
  // The count[] trace made a budget the bound admits DP-infeasible and the
  // search left the plan: rebuild with all rows.
  const auto hp = ClusterDpTable::build(hp_items, steps, k_total);
  const auto lp = ClusterDpTable::build(lp_items, steps, k_total);
  return {*build_frontier(model, hp, lp, bound, grid, entry.t_constraint, anchor), true};
}

EntrySolve solve_all_rows(const CostModel& model, const ClusterItems& hp_items,
                          const ClusterItems& lp_items, const EntryGrid& grid, Time tc) {
  const int k_total = grid.k_total;
  const int steps = grid.internal_steps;
  const FeasibilityBound bound{hp_items, lp_items, k_total};
  if (!bound(steps)) return {infeasible_entry(tc), {}, false};
  const auto hp = ClusterDpTable::build(hp_items, steps, k_total);
  const auto lp = ClusterDpTable::build(lp_items, steps, k_total);
  EntrySolve solve{read_anchor(model, hp, lp, grid, tc), {}, false};
  if (solve.entry.feasible) {
    const ParetoPoint anchor = evaluate_point(model, solve.entry.alloc, tc);
    solve.frontier = *build_frontier(model, hp, lp, bound, grid, tc, anchor);
  }
  return solve;
}

std::vector<EntrySolve> build_entries(const CostModel& model, const LutParams& params,
                                      RowPlan plan) {
  const EntryGrid grid = entry_grid(params);
  std::vector<EntrySolve> entries;
  entries.reserve(static_cast<std::size_t>(params.t_entries));
  for (std::size_t i = 0; i < static_cast<std::size_t>(params.t_entries); ++i) {
    const Time tc = entry_tc(params, i);
    const auto [hp, lp] = entry_items(model, grid, tc);
    if (plan == RowPlan::kAllRows) {
      entries.push_back(solve_all_rows(model, hp, lp, grid, tc));
      continue;
    }
    const LutEntry entry = solve_anchor(model, hp, lp, grid, tc);
    FrontierSolve f = solve_frontier(model, hp, lp, grid, entry);
    entries.push_back({entry, std::move(f.frontier), f.fell_back});
  }
  return entries;
}

}  // namespace detail

AllocationLut AllocationLut::build(const CostModel& model, const LutParams& params) {
  AllocationLut lut;
  lut.params_ = params;
  lut.model_ = model;
  lut.grid_ = entry_grid(params);
  lut.entries_.reserve(static_cast<std::size_t>(params.t_entries));
  for (std::size_t i = 0; i < static_cast<std::size_t>(params.t_entries); ++i) {
    const Time tc = entry_tc(params, i);
    const auto [hp, lp] = entry_items(model, lut.grid_, tc);
    lut.entries_.push_back(
        detail::solve_anchor(model, hp, lp, lut.grid_, tc));
  }
  lut.frontiers_ = std::make_unique<Frontiers>(lut.entries_.size());
  return lut;
}

const std::vector<ParetoPoint>& AllocationLut::frontier(const LutEntry& entry) const {
  static const std::vector<ParetoPoint> kNone;
  const LutEntry* const first = entries_.data();
  if (std::less<>{}(&entry, first) || !std::less<>{}(&entry, first + entries_.size())) {
    throw std::invalid_argument("AllocationLut::frontier: not an entry of this LUT");
  }
  if (!entry.feasible) return kNone;
  FrontierSlot& slot = frontiers_->slots[static_cast<std::size_t>(&entry - first)];
  std::call_once(slot.once, [&] {
    const auto [hp, lp] = entry_items(model_, grid_, entry.t_constraint);
    slot.points = detail::solve_frontier(model_, hp, lp, grid_, entry).frontier;
    frontiers_->built.fetch_add(1, std::memory_order_relaxed);
  });
  return slot.points;
}

const LutEntry& AllocationLut::lookup(Time tc) const {
  // Entries are at t_step, 2*t_step, ...; take the largest entry <= tc.
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), tc,
      [](Time value, const LutEntry& e) { return value < e.t_constraint; });
  if (it == entries_.begin()) return entries_.front();
  return *(it - 1);
}

const LutEntry* AllocationLut::lookup_or_peak(Time tc) const {
  const LutEntry& floor_entry = lookup(tc);
  if (floor_entry.feasible) return &floor_entry;
  for (const auto& e : entries_) {
    if (e.feasible) return &e;
  }
  return nullptr;
}

Time AllocationLut::peak_t_constraint() const {
  for (const auto& e : entries_) {
    if (e.feasible) return e.t_constraint;
  }
  return Time::max();
}

ResolutionChoice pick_resolution(Time slice, double budget_fraction, double cells_per_us,
                                 int max_resolution) {
  // Construction cost: sum over entries s of  2 clusters * 2 spaces * s * K
  // cells  ~  2 * R^2 * K  with K = R  =>  2 * R^3 cells.
  const double budget_us = slice.as_us() * budget_fraction;
  int r = 8;
  ResolutionChoice best{r, r, 0.0};
  while (r <= max_resolution) {
    const double cells = 2.0 * std::pow(static_cast<double>(r), 3);
    const double us = cells / cells_per_us;
    if (us > budget_us) break;
    best = {r, r, us};
    r *= 2;
  }
  return best;
}

}  // namespace hhpim::placement
