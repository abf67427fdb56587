#include "placement/lut.hpp"

#include <algorithm>
#include <cmath>
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

/// An entry from its two cluster tables (Algorithm 2 at the anchor budget,
/// then the frontier), or nullopt when a row it reads is missing.
std::optional<LutEntry> read_entry(const CostModel& model, const ClusterDpTable& hp,
                                   const ClusterDpTable& lp, const FeasibilityBound& bound,
                                   const detail::EntryGrid& grid, Time tc) {
  const std::optional<CombineResult> comb =
      combine_at(hp, lp, grid.k_total, grid.internal_steps);
  if (!comb) return std::nullopt;
  LutEntry entry;
  entry.t_constraint = tc;
  entry.feasible = comb->feasible;
  if (!comb->feasible) return entry;
  entry.alloc = reconstruct_alloc(hp, lp, *comb, grid.internal_steps, grid.block,
                                  grid.total_weights);
  // Prediction uses the gating-quantized retention (what the hardware
  // pays); the DP itself optimizes the linearized form per Algorithm 1.
  const ParetoPoint anchor = evaluate_point(model, entry.alloc, tc);
  entry.predicted_task_energy = anchor.energy;
  // The trade-off surface rides along on the already-built DP tables
  // (~the cost of a few extra O(K) combines per entry).
  std::optional<std::vector<ParetoPoint>> frontier =
      build_frontier(model, hp, lp, bound, grid, tc, anchor);
  if (!frontier) return std::nullopt;
  entry.frontier = std::move(*frontier);
  return entry;
}

}  // namespace

namespace detail {

EntrySolve solve_entry(const CostModel& model, const ClusterItems& hp_items,
                       const ClusterItems& lp_items, const EntryGrid& grid, Time tc,
                       RowPlan plan) {
  const int k_total = grid.k_total;
  const int steps = grid.internal_steps;
  const FeasibilityBound bound{hp_items, lp_items, k_total};
  // Early infeasibility cutoff: entries left of the peak boundary — the
  // paper's grey "Not Possible" region — are rejected without building a
  // table. Exact as a rejection: a DP-feasible split has each half within
  // its cluster's max_feasible_blocks.
  if (!bound(steps)) {
    LutEntry entry;
    entry.t_constraint = tc;
    return {entry, false};
  }

  // Algorithm 1, once per cluster, with this entry's time constraint as
  // the end of the quantized time axis; then Algorithm 2 and the frontier.
  if (plan == RowPlan::kPlanned) {
    const std::vector<int> rows = plan_rows(bound, steps);
    const auto hp = ClusterDpTable::build(hp_items, steps, k_total, rows);
    const auto lp = ClusterDpTable::build(lp_items, steps, k_total, rows);
    if (std::optional<LutEntry> entry = read_entry(model, hp, lp, bound, grid, tc)) {
      return {std::move(*entry), false};
    }
  }
  // All rows: the reference, and the fallback when the count[] trace made a
  // budget the bound admits DP-infeasible and the search left the plan.
  const auto hp = ClusterDpTable::build(hp_items, steps, k_total);
  const auto lp = ClusterDpTable::build(lp_items, steps, k_total);
  return {*read_entry(model, hp, lp, bound, grid, tc), plan == RowPlan::kPlanned};
}

std::vector<LutEntry> build_entries(const CostModel& model, const LutParams& params,
                                    RowPlan plan) {
  if (params.slice <= Time::zero() || params.total_weights == 0 ||
      params.t_entries <= 0 || params.k_blocks <= 0 || params.k_blocks > kMaxDpBlocks) {
    throw std::invalid_argument("AllocationLut: bad parameters");
  }

  EntryGrid grid;
  grid.total_weights = params.total_weights;
  grid.block = (params.total_weights + static_cast<std::uint64_t>(params.k_blocks) - 1) /
               static_cast<std::uint64_t>(params.k_blocks);
  grid.k_total = static_cast<int>((params.total_weights + grid.block - 1) / grid.block);
  const Time t_step = Time::ps(params.slice.as_ps() / params.t_entries);
  if (t_step <= Time::zero()) {
    throw std::invalid_argument("AllocationLut: slice too short for t_entries");
  }

  // Internal DP time resolution: fine enough that per-block ceil rounding
  // stays below ~1/kStepsPerBlock of the constraint even if every block
  // lands in one cluster.
  constexpr int kStepsPerBlock = 16;
  grid.internal_steps = grid.k_total * kStepsPerBlock;

  std::vector<LutEntry> entries;
  entries.reserve(static_cast<std::size_t>(params.t_entries));
  for (int s = 1; s <= params.t_entries; ++s) {
    const Time tc = Time::ps(t_step.as_ps() * s);
    const Time t_int = Time::ps(std::max<std::int64_t>(1, tc.as_ps() / grid.internal_steps));

    const ClusterItems hp_items = {
        make_item(model.at(Space::kHpMram), grid.block, t_int, tc),
        make_item(model.at(Space::kHpSram), grid.block, t_int, tc),
    };
    const ClusterItems lp_items = {
        make_item(model.at(Space::kLpMram), grid.block, t_int, tc),
        make_item(model.at(Space::kLpSram), grid.block, t_int, tc),
    };
    entries.push_back(solve_entry(model, hp_items, lp_items, grid, tc, plan).entry);
  }
  return entries;
}

}  // namespace detail

AllocationLut AllocationLut::build(const CostModel& model, const LutParams& params) {
  AllocationLut lut;
  lut.entries_ = detail::build_entries(model, params, detail::RowPlan::kPlanned);
  lut.params_ = params;
  return lut;
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
