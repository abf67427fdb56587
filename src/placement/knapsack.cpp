#include "placement/knapsack.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

namespace hhpim::placement {

namespace {

void validate_items(const ClusterItems& items, int t_steps, int k_blocks) {
  if (t_steps < 0 || k_blocks < 0) {
    throw std::invalid_argument("ClusterDpTable: negative dimensions");
  }
  for (const auto& it : items) {
    if (it.time_steps <= 0) {
      throw std::invalid_argument("ClusterDpTable: block time must be >= 1 step");
    }
  }
}

/// Minimum steps to process exactly k blocks (fill the faster space first,
/// respecting capacities); -1 when k exceeds the combined capacity. Exactly
/// the DP's feasibility frontier: dp[t][k] < inf iff min_steps(k) <= t.
std::int64_t min_steps_for(const ClusterItems& items, int k) {
  const int fast = items[0].time_steps <= items[1].time_steps ? 0 : 1;
  const int slow = 1 - fast;
  const auto& f = items[static_cast<std::size_t>(fast)];
  const auto& s = items[static_cast<std::size_t>(slow)];
  const int in_fast = std::min(k, f.cap_blocks);
  const int in_slow = k - in_fast;
  if (in_slow > s.cap_blocks) return -1;
  return static_cast<std::int64_t>(in_fast) * f.time_steps +
         static_cast<std::int64_t>(in_slow) * s.time_steps;
}

}  // namespace

int max_feasible_blocks(const ClusterItems& items, int t_steps, int k_max) {
  validate_items(items, t_steps, k_max);
  // min_steps_for is nondecreasing in k, so walk up until the budget breaks.
  int k = 0;
  while (k < k_max) {
    const std::int64_t need = min_steps_for(items, k + 1);
    if (need < 0 || need > t_steps) break;
    ++k;
  }
  return k;
}

ClusterDpTable ClusterDpTable::build(const ClusterItems& items, int t_steps, int k_blocks) {
  validate_items(items, t_steps, k_blocks);

  const DpItem& mram = items[0];
  const DpItem& sram = items[1];
  // Cells with k > cap_mram + cap_sram are infeasible for every placement.
  const int k_cap = static_cast<int>(std::min<std::int64_t>(
      k_blocks, static_cast<std::int64_t>(mram.cap_blocks) + sram.cap_blocks));
  // The saturation row: every predicate the recurrence tests at (t, k <= k_cap)
  // — min_steps(k) <= t, k·dt_mram <= t, and row t - j·dt_sram existing along
  // the SRAM chain — has the form c <= t with c <= k_cap·max(dt), so rows
  // past it are copies of it and are not stored (index() clamps to it).
  const int last_row = static_cast<int>(std::min<std::int64_t>(
      t_steps, static_cast<std::int64_t>(k_cap) *
                   std::max(mram.time_steps, sram.time_steps)));

  ClusterDpTable table;
  table.t_steps_ = t_steps;
  table.k_blocks_ = k_blocks;
  table.last_row_ = last_row;
  const std::size_t stride = static_cast<std::size_t>(k_blocks + 1);
  const std::size_t cells = static_cast<std::size_t>(last_row + 1) * stride;
  table.dp_ = std::make_unique_for_overwrite<double[]>(cells);
  table.cnt_ = std::make_unique_for_overwrite<std::uint16_t[]>(cells);

  // Algorithm 1 over the two spaces of one cluster, with the MRAM level
  // (space 0) collapsed to its closed form: placing k blocks using MRAM only
  // costs k·e_mram and takes k·dt_mram steps (feasible iff k <= cap_mram).
  // Only the SRAM level (space 1) runs as a DP, written directly into the
  // final table — no per-level scratch buffers, one allocation per array.
  //
  //   dp[t][k] = min( mram_only(t, k),                       // paper line 12
  //                   dp[t - dt_sram][k - 1] + e_sram )      // paper line 9
  //
  // cnt[t][k] is the paper's count[][][]: blocks the optimal path placed in
  // SRAM; it traces the allocation and enforces the SRAM capacity. The MRAM
  // prefix energies are accumulated iteratively (e0sum[k] = e0sum[k-1] + e)
  // so results stay bit-identical to a literal per-level DP.
  //
  // Cells with t < min_steps(k) are infeasible for every placement; each row
  // writes them as infinity instead of visiting them.
  std::vector<std::int64_t> min_steps(static_cast<std::size_t>(k_cap) + 1, 0);
  for (int k = 1; k <= k_cap; ++k) {
    min_steps[static_cast<std::size_t>(k)] = min_steps_for(items, k);
  }

  // MRAM-only prefix energies, iteratively accumulated.
  std::vector<double> mram_energy(static_cast<std::size_t>(std::min(k_cap, mram.cap_blocks)) + 1,
                                  0.0);
  for (std::size_t k = 1; k < mram_energy.size(); ++k) {
    mram_energy[k] = mram_energy[k - 1] + mram.energy_pj;
  }

  double* dp = table.dp_.get();
  std::uint16_t* cnt = table.cnt_.get();
  // Copied out of `items` so stores into the table cannot alias them.
  const int dt = sram.time_steps;
  const double e_sram = sram.energy_pj;
  const int cap_sram = sram.cap_blocks;
  // t outer / k inner: dp[t][*] and dp[t - dt][*] are contiguous rows, so the
  // inner loop streams through memory instead of striding by k.
  int k_ub = 0;  // largest k with min_steps(k) <= t; nondecreasing in t
  for (int t = 0; t <= last_row; ++t) {
    while (k_ub < k_cap && min_steps[static_cast<std::size_t>(k_ub) + 1] <= t) ++k_ub;
    double* row = dp + static_cast<std::size_t>(t) * stride;
    std::uint16_t* crow = cnt + static_cast<std::size_t>(t) * stride;
    // Option A (all blocks stayed in MRAM) is available exactly for k <= k_a.
    const int k_a = std::min({k_ub, mram.cap_blocks, t / mram.time_steps});
    row[0] = 0.0;
    crow[0] = 0;
    if (t < dt) {
      for (int k = 1; k <= k_a; ++k) {
        row[k] = mram_energy[static_cast<std::size_t>(k)];
        crow[k] = 0;
      }
      for (int k = k_a + 1; k <= k_ub; ++k) {
        row[k] = kInfEnergy;
        crow[k] = 0;
      }
    } else {
      // Option B: one more block into SRAM, if it fits capacity. No
      // feasibility test on the source cell: inf + e_sram is inf (or NaN),
      // which never compares below `best`, exactly as if it were skipped.
      const double* prev_row = dp + static_cast<std::size_t>(t - dt) * stride;
      const std::uint16_t* prev_crow = cnt + static_cast<std::size_t>(t - dt) * stride;
      auto cell = [&](int k, double best) {
        const std::uint16_t used = prev_crow[k - 1];
        const double e = prev_row[k - 1] + e_sram;
        const bool take = static_cast<int>(used) < cap_sram && e < best;
        row[k] = take ? e : best;
        crow[k] = take ? static_cast<std::uint16_t>(used + 1) : std::uint16_t{0};
      };
      for (int k = 1; k <= k_a; ++k) cell(k, mram_energy[static_cast<std::size_t>(k)]);
      for (int k = k_a + 1; k <= k_ub; ++k) cell(k, kInfEnergy);
    }
    for (int k = k_ub + 1; k <= k_blocks; ++k) {
      row[k] = kInfEnergy;
      crow[k] = 0;
    }
  }
  return table;
}

std::pair<int, int> ClusterDpTable::split(int t, int k) const {
  const int sram = cnt_[index(t, k)];
  return {k - sram, sram};
}

CombineResult combine_clusters(const ClusterDpTable& hp, const ClusterDpTable& lp,
                               int k_total, int t) {
  CombineResult best;
  for (int k_hp = 0; k_hp <= k_total; ++k_hp) {
    const int k_lp = k_total - k_hp;
    if (k_hp > hp.k_blocks() || k_lp > lp.k_blocks()) continue;
    const double e_hp = hp.energy(t, k_hp);
    const double e_lp = lp.energy(t, k_lp);
    if (e_hp >= kInfEnergy || e_lp >= kInfEnergy) continue;  // paper line 6
    const double e = e_hp + e_lp;
    if (e < best.energy_pj) {  // paper lines 7-10
      best.feasible = true;
      best.energy_pj = e;
      best.k_hp = k_hp;
      best.k_lp = k_lp;
    }
  }
  return best;
}

}  // namespace hhpim::placement
