#include "placement/knapsack.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hhpim::placement {

namespace {

/// A count of SRAM blocks in the kernel's scratch rows: 32-bit, so that a
/// vector lane compares and selects it beside the energies. Stored rows
/// narrow it to uint16.
using DpCount = std::int32_t;

/// The cell loop runs in whole chunks, a multiple of the vector width, so
/// no scalar remainder loop runs. Scratch rows and the option-A row hold
/// kChunk cells past k_cap.
constexpr int kChunk = 8;

/// The row kernel: cells 0..len of row t from row t - dt_sram (`prev`,
/// computed through prev_len). A cell k <= k_b (option B reads cell k - 1
/// of the previous row, so k_b = min(len, prev_len + 1)) takes the better
/// of option A, all blocks in MRAM (`mram_only`: k·e_mram up to row t's
/// MRAM budget, infinity past it), and option B, one more block into SRAM
/// on top of cell k - 1. Branch-free so that it vectorizes: both options
/// are computed and `take`, the paper's test, selects one. No feasibility
/// test on the source cell: inf + e_sram is inf (or NaN), which never
/// compares below option A, exactly as if it were skipped. Past k_b only
/// option A is left: the second loop overwrites the cells the last chunk
/// computed there from stale scratch. Past len such cells feed only other
/// cells past a later row's k_b, and a requested row is copied out only up
/// to len.
void fill_row(const double* __restrict prev, const DpCount* __restrict prev_cnt,
              const double* __restrict mram_only, double* __restrict row,
              DpCount* __restrict cnt, int len, int k_b, double e_sram, DpCount cap_sram) {
  row[0] = 0.0;
  cnt[0] = 0;
  const int n = (k_b + kChunk - 1) / kChunk * kChunk;
  for (int k = 1; k <= n; ++k) {
    const DpCount used = prev_cnt[k - 1];
    const double e = prev[k - 1] + e_sram;
    const bool take = (used < cap_sram) & (e < mram_only[k]);
    row[k] = take ? e : mram_only[k];
    cnt[k] = take ? used + 1 : 0;
  }
  for (int k = k_b + 1; k <= len; ++k) {
    row[k] = mram_only[k];
    cnt[k] = 0;
  }
}

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

void validate_table(const ClusterItems& items, int t_steps, int k_blocks) {
  validate_items(items, t_steps, k_blocks);
  if (k_blocks > kMaxDpBlocks) {
    throw std::invalid_argument("ClusterDpTable: k_blocks above 65535 (uint16 count trace)");
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
  validate_table(items, t_steps, k_blocks);
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
  validate_table(items, t_steps, k_blocks);

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
  const int m_cap = std::min(k_cap, mram.cap_blocks);
  const std::size_t width = static_cast<std::size_t>(k_cap) + 1 + kChunk;  // scratch row
  std::vector<double> mram_energy(static_cast<std::size_t>(m_cap) + 1, 0.0);
  for (std::size_t k = 1; k < mram_energy.size(); ++k) {
    mram_energy[k] = mram_energy[k - 1] + mram.energy_pj;
  }
  // Option A at the walked row: mram_energy up to the row's MRAM budget
  // min(m_cap, t / dt_mram), then infinity; a_len is that budget.
  std::vector<double> mram_only(width, kInfEnergy);
  mram_only[0] = 0.0;
  int a_len = 0;
  // The time-minimal schedule of k blocks (see blocks_within): k_ub(t) is
  // the largest k <= k_cap with min_steps[k] <= t.
  std::vector<std::int64_t> min_steps(static_cast<std::size_t>(k_cap) + 1, 0);
  {
    const int fast = items[0].time_steps <= items[1].time_steps ? 0 : 1;
    const DpItem& f = items[static_cast<std::size_t>(fast)];
    const DpItem& s = items[static_cast<std::size_t>(1 - fast)];
    for (int k = 1; k <= k_cap; ++k) {
      const int in_fast = std::min(k, f.cap_blocks);
      min_steps[static_cast<std::size_t>(k)] =
          static_cast<std::int64_t>(in_fast) * f.time_steps +
          static_cast<std::int64_t>(k - in_fast) * s.time_steps;
    }
  }
  // Two scratch rows the walk alternates between; a requested row is copied
  // into the table, its counts narrowed to uint16.
  std::vector<double> scratch_dp(2 * width);
  std::vector<DpCount> scratch_cnt(2 * width);

  // The walk's last row: prev_len = -1 at the start of a walk.
  const double* prev = nullptr;
  const DpCount* prev_cnt = nullptr;
  int prev_len = -1;
  double* row = nullptr;
  DpCount* cnt = nullptr;
  int len = 0;
  const std::int64_t dt_mram = mram.time_steps;
  int prev_t = -1;  // the last row walked, in the current residue class
  std::size_t next_scratch = 0;
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
    // Along the walk, the feasibility bound k_ub(t), the MRAM budget
    // min(m_cap, t / dt_mram) and the cone bound k_cap - (q - t)/dt advance
    // with t; only the walk's first row divides.
    int k_ub = blocks_within(items, t, k_cap);
    const int budget = static_cast<int>(std::min<std::int64_t>(m_cap, t / dt_mram));
    if (budget < a_len) {
      std::fill(mram_only.begin() + budget + 1, mram_only.begin() + a_len + 1, kInfEnergy);
    } else {
      std::copy(mram_energy.begin() + a_len + 1, mram_energy.begin() + budget + 1,
                mram_only.begin() + a_len + 1);
    }
    a_len = budget;
    int cone = k_cap - (q - t) / dt;  // q - t is a multiple of dt
    for (;;) {
      // A walked row t < q gets the cells of q's dependency cone below
      // k_ub(t); the cells a later row reads past them are infinity in the
      // full table, since the cone bound grows by one block per step up the
      // chain while a row reads one block down. Row q has cone = k_cap.
      len = std::min(k_ub, cone);
      row = scratch_dp.data() + next_scratch * width;
      cnt = scratch_cnt.data() + next_scratch * width;
      next_scratch ^= 1;
      fill_row(prev, prev_cnt, mram_only.data(), row, cnt, len, std::min(len, prev_len + 1),
               sram.energy_pj, sram.cap_blocks);
      prev = row;
      prev_cnt = cnt;
      prev_len = len;
      if (t == q) break;
      t += dt;
      ++cone;
      while (k_ub < k_cap && min_steps[static_cast<std::size_t>(k_ub) + 1] <= t) ++k_ub;
      for (; a_len < m_cap && (a_len + 1) * dt_mram <= t; ++a_len) {
        mram_only[static_cast<std::size_t>(a_len) + 1] =
            mram_energy[static_cast<std::size_t>(a_len) + 1];
      }
    }
    const std::size_t at =
        static_cast<std::size_t>(table.row_of_[static_cast<std::size_t>(q)]) * stride;
    double* out = table.dp_.get() + at;
    std::uint16_t* out_cnt = table.cnt_.get() + at;
    std::copy_n(row, len + 1, out);
    std::copy_n(cnt, len + 1, out_cnt);  // counts <= k_blocks < 65536
    std::fill(out + len + 1, out + stride, kInfEnergy);
    std::fill(out_cnt + len + 1, out_cnt + stride, std::uint16_t{0});
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
  // k_hp runs over the splits both tables hold.
  const int lo = std::max(0, k_total - lp.k_blocks());
  const int hi = std::min(k_total, hp.k_blocks());
  const double* e_hp = hp.energies(t).data();
  const double* e_lp = lp.energies(t).data();
  // Paper lines 6-10: the lowest k_hp whose sum is strictly below every
  // earlier one. A split with an infeasible (inf) or NaN operand sums to inf
  // or NaN, which never compares below the running best (inf at first), so
  // it is skipped without a test.
  CombineResult best;
  for (int k_hp = lo; k_hp <= hi; ++k_hp) {
    const double e = e_hp[k_hp] + e_lp[k_total - k_hp];
    if (e < best.energy_pj) {
      best.feasible = true;
      best.energy_pj = e;
      best.k_hp = k_hp;
      best.k_lp = k_total - k_hp;
    }
  }
  return best;
}

}  // namespace hhpim::placement
