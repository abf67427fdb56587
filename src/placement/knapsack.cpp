#include "placement/knapsack.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <utility>
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

/// max_feasible_blocks without the argument checks: the largest k <= k_max
/// with the time-minimal schedule (fill the faster space first, respecting
/// capacities) within t steps.
int blocks_within(const ClusterItems& items, int t, int k_max) {
  const int fast = items[0].time_steps <= items[1].time_steps ? 0 : 1;
  const DpItem& f = items[static_cast<std::size_t>(fast)];
  const DpItem& s = items[static_cast<std::size_t>(1 - fast)];
  std::int64_t k = std::min(f.cap_blocks, t / f.time_steps);
  if (k == f.cap_blocks) {
    const std::int64_t left = t - static_cast<std::int64_t>(f.cap_blocks) * f.time_steps;
    k += std::min<std::int64_t>(s.cap_blocks, left / s.time_steps);
  }
  return static_cast<int>(std::min<std::int64_t>(k, k_max));
}

/// The blocks any placement can hold, k_cap = min(k_blocks, cap_mram +
/// cap_sram), and the saturation row R. Every predicate the recurrence tests
/// at (t, k <= k_cap) — min_steps(k) <= t, k·dt_mram <= t, and row
/// t - j·dt_sram existing along the SRAM chain — has the form c <= t with
/// c <= k_cap·max(dt), so rows past R = min(t_steps, k_cap·max(dt)) are
/// copies of it and are not stored (index() clamps to it).
struct Extent {
  int k_cap;
  int last_row;
};
Extent extent(const ClusterItems& items, int t_steps, int k_blocks) {
  const int k_cap = static_cast<int>(std::min<std::int64_t>(
      k_blocks, static_cast<std::int64_t>(items[0].cap_blocks) + items[1].cap_blocks));
  const int last_row = static_cast<int>(std::min<std::int64_t>(
      t_steps, static_cast<std::int64_t>(k_cap) *
                   std::max(items[0].time_steps, items[1].time_steps)));
  return {k_cap, last_row};
}

}  // namespace

int max_feasible_blocks(const ClusterItems& items, int t_steps, int k_max) {
  validate_items(items, t_steps, k_max);
  return blocks_within(items, t_steps, k_max);
}

ClusterDpTable ClusterDpTable::build(const ClusterItems& items, int t_steps, int k_blocks) {
  validate_items(items, t_steps, k_blocks);
  // Rows past the saturation row read it, so requesting 0..t_steps is
  // requesting 0..R. Listed in walk order, which the row-set build keeps.
  const int last_row = extent(items, t_steps, k_blocks).last_row;
  const int dt = items[1].time_steps;
  std::vector<int> rows;
  rows.reserve(static_cast<std::size_t>(last_row) + 1);
  for (int r = 0; r < dt && r <= last_row; ++r) {
    for (int t = r; t <= last_row; t += dt) rows.push_back(t);
  }
  return build(items, t_steps, k_blocks, rows);
}

ClusterDpTable ClusterDpTable::build(const ClusterItems& items, int t_steps, int k_blocks,
                                     std::span<const int> rows) {
  validate_items(items, t_steps, k_blocks);

  const DpItem& mram = items[0];
  const DpItem& sram = items[1];
  const auto [k_cap, last_row] = extent(items, t_steps, k_blocks);
  const int dt = sram.time_steps;

  // The requested rows, saturated, deduplicated, and ordered by SRAM-chain
  // residue class, then bottom-up within the class: the walk order.
  std::vector<int> wanted;
  wanted.reserve(rows.size());
  for (const int t : rows) {
    if (t < 0 || t > t_steps) {
      throw std::invalid_argument("ClusterDpTable: requested row out of range");
    }
    wanted.push_back(std::min(t, last_row));
  }
  const auto walk_order = [dt](int a, int b) {
    return std::pair{a % dt, a} < std::pair{b % dt, b};
  };
  if (!std::is_sorted(wanted.begin(), wanted.end(), walk_order)) {
    std::sort(wanted.begin(), wanted.end(), walk_order);
  }
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());

  ClusterDpTable table;
  table.t_steps_ = t_steps;
  table.k_blocks_ = k_blocks;
  table.last_row_ = last_row;
  table.row_of_ = std::make_unique_for_overwrite<int[]>(static_cast<std::size_t>(last_row) + 1);
  std::fill_n(table.row_of_.get(), last_row + 1, -1);
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    table.row_of_[static_cast<std::size_t>(wanted[i])] = static_cast<int>(i);
  }

  const std::size_t stride = static_cast<std::size_t>(k_blocks + 1);
  table.dp_ = std::make_unique_for_overwrite<double[]>(wanted.size() * stride);
  table.cnt_ = std::make_unique_for_overwrite<std::uint16_t[]>(wanted.size() * stride);
  // Two scratch rows for the walked rows between requested ones.
  std::array<std::unique_ptr<double[]>, 2> scratch_dp = {
      std::make_unique_for_overwrite<double[]>(stride),
      std::make_unique_for_overwrite<double[]>(stride)};
  std::array<std::unique_ptr<std::uint16_t[]>, 2> scratch_cnt = {
      std::make_unique_for_overwrite<std::uint16_t[]>(stride),
      std::make_unique_for_overwrite<std::uint16_t[]>(stride)};

  // Algorithm 1 over the two spaces of one cluster, with the MRAM level
  // (space 0) collapsed to its closed form: placing k blocks using MRAM only
  // costs k·e_mram and takes k·dt_mram steps (feasible iff k <= cap_mram).
  // Only the SRAM level (space 1) runs as a DP:
  //
  //   dp[t][k] = min( mram_only(t, k),                       // paper line 12
  //                   dp[t - dt_sram][k - 1] + e_sram )      // paper line 9
  //
  // cnt[t][k] is the paper's count[][][]: blocks the optimal path placed in
  // SRAM; it traces the allocation and enforces the SRAM capacity. The MRAM
  // prefix energies are accumulated iteratively (e0sum[k] = e0sum[k-1] + e)
  // so results stay bit-identical to a literal per-level DP.
  std::vector<double> mram_energy(static_cast<std::size_t>(std::min(k_cap, mram.cap_blocks)) + 1,
                                  0.0);
  for (std::size_t k = 1; k < mram_energy.size(); ++k) {
    mram_energy[k] = mram_energy[k - 1] + mram.energy_pj;
  }

  // Copied out of `items` so stores into the table cannot alias them.
  const int dt_mram = mram.time_steps;
  const int cap_mram = mram.cap_blocks;
  const double e_sram = sram.energy_pj;
  const int cap_sram = sram.cap_blocks;

  // One row of the walk: cells 0..len, len <= k_ub(t). The cells a later
  // row reads past len are infinity in the full table: len is min(k_ub,
  // cone bound), and the cone bound grows by one block per step up the
  // chain while a row reads one block down. `prev` is row t - dt with its
  // own `prev_len`, or prev_len = -1 at the start of a walk.
  auto fill_row = [&](int t, int len, double* row, std::uint16_t* crow,
                      const double* prev_row, const std::uint16_t* prev_crow, int prev_len) {
    // Option A (all blocks stayed in MRAM) is available exactly for k <= k_a.
    const int k_a = std::min({len, cap_mram, t / dt_mram});
    // Option B (one more block into SRAM) reads cell k - 1 of the previous
    // row; past its computed cells that source is infinity, and so never
    // taken. No feasibility test on the source cell: inf + e_sram is inf (or
    // NaN), which never compares below `best`, exactly as if it were skipped.
    const int k_b = std::min(len, prev_len + 1);
    auto cell = [&](int k, double best) {
      const std::uint16_t used = prev_crow[k - 1];
      const double e = prev_row[k - 1] + e_sram;
      const bool take = static_cast<int>(used) < cap_sram && e < best;
      row[k] = take ? e : best;
      crow[k] = take ? static_cast<std::uint16_t>(used + 1) : std::uint16_t{0};
    };
    row[0] = 0.0;
    crow[0] = 0;
    const int both = std::min(k_a, k_b);
    for (int k = 1; k <= both; ++k) cell(k, mram_energy[static_cast<std::size_t>(k)]);
    for (int k = both + 1; k <= k_b; ++k) cell(k, kInfEnergy);
    for (int k = both + 1; k <= k_a; ++k) {
      row[k] = mram_energy[static_cast<std::size_t>(k)];
      crow[k] = 0;
    }
    for (int k = std::max(k_a, k_b) + 1; k <= len; ++k) {
      row[k] = kInfEnergy;
      crow[k] = 0;
    }
  };

  double* dp = table.dp_.get();
  std::uint16_t* cnt = table.cnt_.get();
  const double* prev_row = nullptr;
  const std::uint16_t* prev_crow = nullptr;
  int prev_len = -1;
  int prev_t = -1;  // the last row walked, in the current residue class
  int next_scratch = 0;
  for (const int q : wanted) {
    // Walk up to requested row q from the lowest row of its class whose
    // cone is nonempty, or from where the walk below q stopped.
    const std::int64_t cone_floor = static_cast<std::int64_t>(q) -
                                    static_cast<std::int64_t>(k_cap) * dt;
    int t = static_cast<int>(std::max<std::int64_t>(cone_floor, q % dt));
    if (prev_t >= 0 && prev_t % dt == q % dt && prev_t + dt >= t) {
      t = prev_t + dt;
    } else {
      prev_len = -1;  // a new walk: row t - dt has an empty cone or does not exist
    }
    for (; t < q; t += dt) {
      const int len = std::min(blocks_within(items, t, k_cap), k_cap - (q - t) / dt);
      double* row = scratch_dp[static_cast<std::size_t>(next_scratch)].get();
      std::uint16_t* crow = scratch_cnt[static_cast<std::size_t>(next_scratch)].get();
      next_scratch ^= 1;
      fill_row(t, len, row, crow, prev_row, prev_crow, prev_len);
      prev_row = row;
      prev_crow = crow;
      prev_len = len;
    }
    const std::size_t at =
        static_cast<std::size_t>(table.row_of_[static_cast<std::size_t>(q)]) * stride;
    double* row = dp + at;
    std::uint16_t* crow = cnt + at;
    const int len = blocks_within(items, q, k_cap);
    fill_row(q, len, row, crow, prev_row, prev_crow, prev_len);
    for (int k = len + 1; k <= k_blocks; ++k) {
      row[k] = kInfEnergy;
      crow[k] = 0;
    }
    prev_row = row;
    prev_crow = crow;
    prev_len = len;
    prev_t = q;
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
