#include "placement/knapsack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace hhpim::placement {
namespace {

// A tiny reference solver for one cluster: enumerate x blocks in SRAM
// (space 1), k - x in MRAM (space 0).
double cluster_reference(const ClusterItems& items, int t, int k) {
  double best = kInfEnergy;
  for (int x = 0; x <= k; ++x) {
    const int mram = k - x;
    if (x > items[1].cap_blocks || mram > items[0].cap_blocks) continue;
    const int time = mram * items[0].time_steps + x * items[1].time_steps;
    if (time > t) continue;
    best = std::min(best, mram * items[0].energy_pj + x * items[1].energy_pj);
  }
  return best;
}

TEST(ClusterDp, MatchesReferenceOnSmallInstance) {
  // MRAM: slow (3 steps) cheap (1 pJ); SRAM: fast (1 step) pricey (5 pJ).
  const ClusterItems items = {DpItem{3, 1.0, 100}, DpItem{1, 5.0, 100}};
  const auto table = ClusterDpTable::build(items, 30, 10);
  for (int t = 0; t <= 30; ++t) {
    for (int k = 0; k <= 10; ++k) {
      EXPECT_DOUBLE_EQ(table.energy(t, k), cluster_reference(items, t, k))
          << "t=" << t << " k=" << k;
    }
  }
}

TEST(ClusterDp, SplitTracesTheOptimalPath) {
  const ClusterItems items = {DpItem{3, 1.0, 100}, DpItem{1, 5.0, 100}};
  const auto table = ClusterDpTable::build(items, 30, 10);
  // Plenty of time: everything goes to cheap MRAM.
  auto [mram, sram] = table.split(30, 10);
  EXPECT_EQ(mram, 10);
  EXPECT_EQ(sram, 0);
  // Tight time (10 steps for 10 blocks): everything must use 1-step SRAM.
  std::tie(mram, sram) = table.split(10, 10);
  EXPECT_EQ(mram, 0);
  EXPECT_EQ(sram, 10);
  // In between (t = 20): x SRAM + (10-x) MRAM with 3(10-x)+x <= 20 -> x >= 5.
  std::tie(mram, sram) = table.split(20, 10);
  EXPECT_EQ(sram, 5);
  EXPECT_EQ(mram, 5);
  EXPECT_DOUBLE_EQ(table.energy(20, 10), 5 * 1.0 + 5 * 5.0);
}

TEST(ClusterDp, InfeasibleIsInfinity) {
  const ClusterItems items = {DpItem{3, 1.0, 100}, DpItem{2, 5.0, 100}};
  const auto table = ClusterDpTable::build(items, 5, 10);  // 10 blocks, 5 steps
  EXPECT_FALSE(table.feasible(5, 10));
  EXPECT_TRUE(table.feasible(5, 2));
  EXPECT_TRUE(table.feasible(0, 0));  // zero blocks always feasible
}

TEST(ClusterDp, CapacityConstraintsBind) {
  // SRAM capacity 3 blocks only.
  const ClusterItems items = {DpItem{3, 1.0, 100}, DpItem{1, 5.0, 3}};
  const auto table = ClusterDpTable::build(items, 12, 6);
  // 6 blocks, 12 steps: unconstrained best would be 3 MRAM + 3 SRAM
  // (9 + 3 = 12 steps).
  const auto [mram, sram] = table.split(12, 6);
  EXPECT_LE(sram, 3);
  EXPECT_EQ(mram + sram, 6);
  EXPECT_TRUE(table.feasible(12, 6));
  // With 6 steps only: would need >= 4.5 SRAM blocks -> capacity blocks it.
  EXPECT_FALSE(table.feasible(6, 6));
}

TEST(ClusterDp, ZeroCapacitySpaceNeverUsed) {
  const ClusterItems items = {DpItem{1, 1.0, 0}, DpItem{1, 5.0, 100}};
  const auto table = ClusterDpTable::build(items, 10, 5);
  const auto [mram, sram] = table.split(10, 5);
  EXPECT_EQ(mram, 0);
  EXPECT_EQ(sram, 5);
}

TEST(ClusterDp, BothSpacesZeroCapacityOnlyEmptyIsFeasible) {
  const ClusterItems items = {DpItem{1, 1.0, 0}, DpItem{1, 5.0, 0}};
  const auto table = ClusterDpTable::build(items, 10, 5);
  for (int t = 0; t <= 10; ++t) {
    EXPECT_TRUE(table.feasible(t, 0)) << t;
    EXPECT_DOUBLE_EQ(table.energy(t, 0), 0.0) << t;
    for (int k = 1; k <= 5; ++k) EXPECT_FALSE(table.feasible(t, k)) << t << "," << k;
  }
}

TEST(ClusterDp, CombinedCapacityBounds) {
  // cap 2 + 3 = 5: k = 6 infeasible at any t; k = 5 feasible given time.
  const ClusterItems items = {DpItem{2, 1.0, 2}, DpItem{1, 5.0, 3}};
  const auto table = ClusterDpTable::build(items, 100, 8);
  EXPECT_FALSE(table.feasible(100, 6));
  EXPECT_FALSE(table.feasible(100, 8));
  ASSERT_TRUE(table.feasible(100, 5));
  const auto [mram, sram] = table.split(100, 5);
  EXPECT_EQ(mram, 2);
  EXPECT_EQ(sram, 3);
}

TEST(ClusterDp, ZeroDimensionsDegenerate) {
  const ClusterItems items = {DpItem{1, 1.0, 4}, DpItem{1, 2.0, 4}};
  const auto zero_k = ClusterDpTable::build(items, 5, 0);
  for (int t = 0; t <= 5; ++t) EXPECT_DOUBLE_EQ(zero_k.energy(t, 0), 0.0);
  const auto zero_t = ClusterDpTable::build(items, 0, 3);
  EXPECT_TRUE(zero_t.feasible(0, 0));
  EXPECT_FALSE(zero_t.feasible(0, 1));  // every block costs >= 1 step
}

// The literal Algorithm 1 kernel, kept as the reference for the optimized
// build(): a full (T+1) x (K+1) table pre-filled with infinity, every row
// computed up to t_steps, and the branchy cell that skips infeasible sources.
struct LiteralDp {
  int k_blocks = 0;
  std::vector<double> dp;
  std::vector<std::uint16_t> cnt;

  double energy(int t, int k) const { return dp[index(t, k)]; }
  std::pair<int, int> split(int t, int k) const {
    const int sram = cnt[index(t, k)];
    return {k - sram, sram};
  }
  std::size_t index(int t, int k) const {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(k_blocks + 1) +
           static_cast<std::size_t>(k);
  }
};

std::int64_t literal_min_steps(const ClusterItems& items, int k) {
  const int fast = items[0].time_steps <= items[1].time_steps ? 0 : 1;
  const auto& f = items[static_cast<std::size_t>(fast)];
  const auto& s = items[static_cast<std::size_t>(1 - fast)];
  const int in_fast = std::min(k, f.cap_blocks);
  const int in_slow = k - in_fast;
  if (in_slow > s.cap_blocks) return -1;
  return static_cast<std::int64_t>(in_fast) * f.time_steps +
         static_cast<std::int64_t>(in_slow) * s.time_steps;
}

LiteralDp literal_dp(const ClusterItems& items, int t_steps, int k_blocks) {
  LiteralDp table;
  table.k_blocks = k_blocks;
  const std::size_t stride = static_cast<std::size_t>(k_blocks + 1);
  const std::size_t cells = static_cast<std::size_t>(t_steps + 1) * stride;
  table.dp.assign(cells, kInfEnergy);
  table.cnt.assign(cells, 0);
  for (int t = 0; t <= t_steps; ++t) table.dp[static_cast<std::size_t>(t) * stride] = 0.0;
  if (k_blocks == 0) return table;
  const DpItem& mram = items[0];
  const DpItem& sram = items[1];
  const int k_cap = static_cast<int>(std::min<std::int64_t>(
      k_blocks, static_cast<std::int64_t>(mram.cap_blocks) + sram.cap_blocks));
  std::vector<std::int64_t> min_steps(static_cast<std::size_t>(k_cap) + 1, 0);
  for (int k = 1; k <= k_cap; ++k) {
    min_steps[static_cast<std::size_t>(k)] = literal_min_steps(items, k);
  }
  std::vector<double> mram_energy(static_cast<std::size_t>(std::min(k_cap, mram.cap_blocks)) + 1,
                                  0.0);
  for (std::size_t k = 1; k < mram_energy.size(); ++k) {
    mram_energy[k] = mram_energy[k - 1] + mram.energy_pj;
  }
  const int dt = sram.time_steps;
  int k_ub = 0;
  for (int t = 0; t <= t_steps; ++t) {
    while (k_ub < k_cap && min_steps[static_cast<std::size_t>(k_ub) + 1] <= t) ++k_ub;
    const std::int64_t mram_budget = static_cast<std::int64_t>(t) / mram.time_steps;
    for (int k = 1; k <= k_ub; ++k) {
      double best = kInfEnergy;
      std::uint16_t best_cnt = 0;
      if (k <= mram.cap_blocks && k <= mram_budget) {
        best = mram_energy[static_cast<std::size_t>(k)];
      }
      if (t >= dt) {
        const double from = table.energy(t - dt, k - 1);
        if (from < kInfEnergy) {
          const std::uint16_t used = table.cnt[table.index(t - dt, k - 1)];
          if (static_cast<int>(used) < sram.cap_blocks) {
            const double e = from + sram.energy_pj;
            if (e < best) {
              best = e;
              best_cnt = static_cast<std::uint16_t>(used + 1);
            }
          }
        }
      }
      table.dp[table.index(t, k)] = best;
      table.cnt[table.index(t, k)] = best_cnt;
    }
  }
  return table;
}

// The first difference between `got` and `want` on the requested rows, or
// "" when there is none: `got` must store exactly the requested rows (a row
// past R is stored when some requested row is past R, since both saturate
// into row R) and match `want` on every cell of them, energies as bits.
std::string literal_diff(const ClusterDpTable& got, const LiteralDp& want, int t_steps,
                         int k_blocks, int r, const std::vector<int>& rows) {
  if (got.t_steps() != t_steps || got.k_blocks() != k_blocks) return "dimensions";
  for (int t = 0; t <= t_steps; ++t) {
    const bool requested = std::any_of(rows.begin(), rows.end(), [&](int q) {
      return q == t || (t >= r && q >= r);
    });
    if (got.has_row(t) != requested) return "has_row(" + std::to_string(t) + ")";
    if (!requested) continue;
    for (int k = 0; k <= k_blocks; ++k) {
      if (std::bit_cast<std::uint64_t>(got.energy(t, k)) !=
              std::bit_cast<std::uint64_t>(want.energy(t, k)) ||
          got.split(t, k) != want.split(t, k)) {
        std::ostringstream out;
        out << "t=" << t << " k=" << k << ": energy " << got.energy(t, k) << " vs "
            << want.energy(t, k) << ", SRAM blocks " << got.split(t, k).second << " vs "
            << want.split(t, k).second << " (T=" << t_steps << " K=" << k_blocks << " R=" << r
            << " rows=" << rows.size() << ")";
        return out.str();
      }
    }
  }
  return "";
}

// Per-block energies that exercise the cell's select: NaN, inf, ties with
// the other space's integer energies, and inexact sums whose order matters.
double fuzz_energy(std::mt19937& rng) {
  switch (rng() % 16) {
    case 0: return 0.0;
    case 1: return 2.0;
    case 2: return std::numeric_limits<double>::quiet_NaN();
    case 3: return kInfEnergy;
    default: return 0.1 + static_cast<double>(rng() % 1000) / 7.0;
  }
}

// Differential fuzz: build() (saturation-row clamp, write-once rows,
// branchless cell, row-set walk) against the literal kernel, bit for bit on
// every (t, k) — for the full table and for random row subsets.
TEST(ClusterDp, SaturatedKernelMatchesLiteralDp) {
  std::mt19937 rng(0x5eed2025u);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
  int saturated = 0;  // cases where some looked-up row lies past R
  int sparse = 0;     // subset builds that left some row out
  for (int c = 0; c < 600; ++c) {
    const int k_blocks = pick(13);
    auto capacity = [&]() {
      switch (pick(4)) {
        case 0: return 0;                              // space absent
        case 1: return pick(k_blocks + 1);             // may bind
        default: return k_blocks + pick(4);            // slack
      }
    };
    ClusterItems items;
    for (auto& it : items) {
      it.time_steps = 1 + pick(6);  // dt_sram <, = and > dt_mram
      it.energy_pj = fuzz_energy(rng);
      it.cap_blocks = capacity();
    }
    const int k_cap = std::min(k_blocks, items[0].cap_blocks + items[1].cap_blocks);
    const int r = k_cap * std::max(items[0].time_steps, items[1].time_steps);
    int t_steps = 0;
    switch (pick(5)) {
      case 0: t_steps = pick(r + 1); break;             // below (or at) R
      case 1: t_steps = r; break;                       // at R
      case 2: t_steps = r + 1; break;                   // just above
      case 3: t_steps = r + 1 + pick(3 * r + 8); break; // far above
      default: t_steps = std::max(0, r - 1); break;
    }
    if (t_steps > r) ++saturated;

    const auto want = literal_dp(items, t_steps, k_blocks);
    std::vector<int> all(static_cast<std::size_t>(t_steps) + 1);
    for (int t = 0; t <= t_steps; ++t) all[static_cast<std::size_t>(t)] = t;
    ASSERT_EQ(literal_diff(ClusterDpTable::build(items, t_steps, k_blocks), want, t_steps,
                           k_blocks, r, all),
              "")
        << "case=" << c;

    for (int subset = 0; subset < 4; ++subset) {
      std::vector<int> rows;
      const int n = pick(6);
      for (int i = 0; i < n; ++i) rows.push_back(pick(t_steps + 1));
      if (pick(2) == 0) rows.push_back(t_steps);
      if (pick(3) == 0) rows.push_back(0);
      if (!rows.empty() && pick(3) == 0) rows.push_back(rows.front());   // duplicate
      if (t_steps > r && pick(2) == 0) rows.push_back(r + 1 + pick(t_steps - r));  // past R
      if (static_cast<int>(rows.size()) < std::min(t_steps, r) + 1) ++sparse;
      ASSERT_EQ(literal_diff(ClusterDpTable::build(items, t_steps, k_blocks, rows), want,
                             t_steps, k_blocks, r, rows),
                "")
          << "case=" << c << " subset=" << subset;
    }
  }
  EXPECT_GT(saturated, 100);  // the clamp itself is exercised
  EXPECT_GT(sparse, 1000);    // and the row-set walk
}

// The same differential check at LUT widths (k_blocks 60-130, as r128
// LUTs build), where rows are long enough that the vectorized cell loop
// runs many chunks and ends on every remainder. Capacities mostly hold the
// whole row; one in four cases lets the SRAM capacity bind.
TEST(ClusterDp, MatchesLiteralDpAtRealWidths) {
  std::mt19937 rng(0x51dec0deu);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
  int long_rows = 0;  // cases whose rows reach 60 cells
  int binding = 0;    // cases whose SRAM capacity binds below k_cap
  for (int c = 0; c < 48; ++c) {
    const int k_blocks = 60 + pick(71);
    ClusterItems items;
    for (auto& it : items) {
      it.time_steps = 1 + pick(5);
      it.energy_pj = fuzz_energy(rng);
      it.cap_blocks = k_blocks + pick(8);
    }
    if (pick(4) == 0) items[1].cap_blocks = 1 + pick(k_blocks / 2);
    if (pick(8) == 0) items[0].cap_blocks = pick(k_blocks);
    const int k_cap = std::min(k_blocks, items[0].cap_blocks + items[1].cap_blocks);
    const int r = k_cap * std::max(items[0].time_steps, items[1].time_steps);
    // Up to 16·K steps, the LUT's time axis, and never past R by much.
    const int t_steps = std::min(16 * k_blocks, r / 2 + pick(r / 2 + 8));
    long_rows += max_feasible_blocks(items, t_steps, k_blocks) >= 60 ? 1 : 0;
    binding += items[1].cap_blocks < k_cap ? 1 : 0;

    const auto want = literal_dp(items, t_steps, k_blocks);
    std::vector<int> all(static_cast<std::size_t>(t_steps) + 1);
    for (int t = 0; t <= t_steps; ++t) all[static_cast<std::size_t>(t)] = t;
    ASSERT_EQ(literal_diff(ClusterDpTable::build(items, t_steps, k_blocks), want, t_steps,
                           k_blocks, r, all),
              "")
        << "case=" << c;
    // A LUT entry's plan: its anchor row, a bisection's probes and a
    // handful of budgets below it.
    std::vector<int> rows = {t_steps};
    for (int i = 0; i < 12; ++i) rows.push_back(pick(t_steps + 1));
    ASSERT_EQ(literal_diff(ClusterDpTable::build(items, t_steps, k_blocks, rows), want,
                           t_steps, k_blocks, r, rows),
              "")
        << "case=" << c << " (row set)";
  }
  EXPECT_GT(long_rows, 24);
  EXPECT_GT(binding, 6);
}

TEST(ClusterDp, RowsOutOfRangeThrow) {
  const ClusterItems items = {DpItem{1, 1.0, 4}, DpItem{2, 2.0, 4}};
  const std::vector<int> past = {0, 11};
  const std::vector<int> negative = {-1};
  EXPECT_THROW(ClusterDpTable::build(items, 10, 4, past), std::invalid_argument);
  EXPECT_THROW(ClusterDpTable::build(items, 10, 4, negative), std::invalid_argument);
  const auto none = ClusterDpTable::build(items, 10, 4, std::vector<int>{});
  EXPECT_FALSE(none.has_row(0));
  EXPECT_FALSE(none.has_row(10));
}

// max_feasible_blocks bounds the DP frontier from above, one way only:
// feasible(t, k) implies k <= max_feasible_blocks(t). A DP-feasible cell
// always fits the time-minimal schedule.
TEST(MaxFeasibleBlocks, BoundsTheDpFrontier) {
  std::mt19937 rng(0xb10c5u);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
  int strict = 0;  // cells under the bound that the DP leaves infeasible
  for (int c = 0; c < 400; ++c) {
    const int k_blocks = pick(12);
    ClusterItems items;
    for (auto& it : items) {
      it.time_steps = 1 + pick(5);
      it.energy_pj = 1.0 + pick(100);
      it.cap_blocks = pick(k_blocks + 2);
    }
    const int t_steps = pick(40);
    const auto table = ClusterDpTable::build(items, t_steps, k_blocks);
    for (int t = 0; t <= t_steps; ++t) {
      const int bound = max_feasible_blocks(items, t, k_blocks);
      for (int k = 0; k <= k_blocks; ++k) {
        // The bound is the exact schedule frontier ...
        ASSERT_EQ(k <= bound, cluster_reference(items, t, k) < kInfEnergy)
            << "case=" << c << " t=" << t << " k=" << k;
        // ... and the DP never goes past it.
        if (table.feasible(t, k)) {
          ASSERT_LE(k, bound) << "case=" << c << " t=" << t << " k=" << k;
        } else if (k <= bound) {
          ++strict;
        }
      }
    }
  }
  EXPECT_GT(strict, 0);  // "iff" would be false
}

// The converse fails: the count[] trace keeps one best path per cell. At
// dp[6][4] the path with one SRAM block (3 MRAM + 1 SRAM = 199 pJ) beats
// four MRAM blocks (200 pJ) and uses up the SRAM capacity, so dp[9][5] has
// no source, although 4 MRAM + 1 SRAM blocks fit in 7 <= 9 steps.
TEST(MaxFeasibleBlocks, CountTraceCounterexample) {
  const ClusterItems items = {DpItem{1, 50.0, 4}, DpItem{3, 49.0, 1}};
  const auto table = ClusterDpTable::build(items, 9, 5);
  EXPECT_EQ(max_feasible_blocks(items, 9, 5), 5);
  EXPECT_EQ(table.split(6, 4), std::make_pair(3, 1));
  EXPECT_DOUBLE_EQ(table.energy(6, 4), 199.0);
  EXPECT_FALSE(table.feasible(9, 5));
  EXPECT_TRUE(table.feasible(7, 5));
}

TEST(MaxFeasibleBlocks, CapsAndBudget) {
  const ClusterItems items = {DpItem{2, 1.0, 100}, DpItem{1, 5.0, 2}};
  // 2 fast blocks (1 step each) + budget/2 slow blocks.
  EXPECT_EQ(max_feasible_blocks(items, 10, 100), 2 + 4);
  EXPECT_EQ(max_feasible_blocks(items, 0, 100), 0);
  EXPECT_EQ(max_feasible_blocks(items, 10, 3), 3);  // clamped by k_max
  const ClusterItems empty = {DpItem{1, 1.0, 0}, DpItem{1, 1.0, 0}};
  EXPECT_EQ(max_feasible_blocks(empty, 100, 10), 0);
}

TEST(ClusterDp, InvalidArgumentsThrow) {
  const ClusterItems items = {DpItem{0, 1.0, 1}, DpItem{1, 1.0, 1}};
  EXPECT_THROW(ClusterDpTable::build(items, 10, 5), std::invalid_argument);
  const ClusterItems ok = {DpItem{1, 1.0, 1}, DpItem{1, 1.0, 1}};
  EXPECT_THROW(ClusterDpTable::build(ok, -1, 5), std::invalid_argument);
  // Block counts trace through uint16 counters: k_blocks <= 65535.
  const std::vector<int> row0 = {0};
  EXPECT_THROW(ClusterDpTable::build(ok, 10, kMaxDpBlocks + 1), std::invalid_argument);
  EXPECT_THROW(ClusterDpTable::build(ok, 10, kMaxDpBlocks + 1, row0), std::invalid_argument);
  const auto widest = ClusterDpTable::build(ok, 2, kMaxDpBlocks, row0);
  EXPECT_EQ(widest.split(0, 0), std::make_pair(0, 0));
  EXPECT_FALSE(widest.feasible(0, kMaxDpBlocks));
}

TEST(Combine, PicksBestSplitAcrossClusters) {
  // HP: fast & expensive; LP: slow & cheap.
  const ClusterItems hp_items = {DpItem{2, 10.0, 100}, DpItem{1, 20.0, 100}};
  const ClusterItems lp_items = {DpItem{4, 1.0, 100}, DpItem{2, 2.0, 100}};
  const auto hp = ClusterDpTable::build(hp_items, 40, 10);
  const auto lp = ClusterDpTable::build(lp_items, 40, 10);

  // Very relaxed: everything fits in the cheap LP-MRAM (10 * 4 = 40 steps).
  const auto relaxed = combine_clusters(hp, lp, 10, 40);
  EXPECT_TRUE(relaxed.feasible);
  EXPECT_EQ(relaxed.k_lp, 10);
  EXPECT_DOUBLE_EQ(relaxed.energy_pj, 10.0);

  // Tight (8 steps): LP alone holds at most 4 blocks (2 steps each); HP must
  // take the rest.
  const auto tight = combine_clusters(hp, lp, 10, 8);
  EXPECT_TRUE(tight.feasible);
  EXPECT_GE(tight.k_hp, 6);
  EXPECT_EQ(tight.k_hp + tight.k_lp, 10);

  // Impossible: more blocks than both clusters can chew in 3 steps.
  const auto impossible = combine_clusters(hp, lp, 10, 3);
  EXPECT_FALSE(impossible.feasible);
}

TEST(Combine, ExhaustiveCrossCheck) {
  const ClusterItems hp_items = {DpItem{2, 7.0, 100}, DpItem{1, 9.0, 100}};
  const ClusterItems lp_items = {DpItem{5, 1.0, 100}, DpItem{3, 2.0, 100}};
  const int K = 8;
  const int T = 25;
  const auto hp = ClusterDpTable::build(hp_items, T, K);
  const auto lp = ClusterDpTable::build(lp_items, T, K);
  for (int t = 0; t <= T; ++t) {
    const auto got = combine_clusters(hp, lp, K, t);
    // Reference: brute force over all (k_hp, intra-cluster splits).
    double best = kInfEnergy;
    for (int k_hp = 0; k_hp <= K; ++k_hp) {
      const double hp_e = cluster_reference(hp_items, t, k_hp);
      const double lp_e = cluster_reference(lp_items, t, K - k_hp);
      if (hp_e < kInfEnergy && lp_e < kInfEnergy) best = std::min(best, hp_e + lp_e);
    }
    if (best == kInfEnergy) {
      EXPECT_FALSE(got.feasible) << t;
    } else {
      ASSERT_TRUE(got.feasible) << t;
      EXPECT_DOUBLE_EQ(got.energy_pj, best) << t;
    }
  }
}

// The combine scan as the paper's Algorithm 2 writes it (lines 6-10): skip
// a split with an infeasible operand, keep the first strictly lower sum.
CombineResult literal_combine(const ClusterDpTable& hp, const ClusterDpTable& lp, int k_total,
                              int t) {
  CombineResult best;
  for (int k_hp = 0; k_hp <= k_total; ++k_hp) {
    const int k_lp = k_total - k_hp;
    if (k_hp > hp.k_blocks() || k_lp > lp.k_blocks()) continue;
    const double e_hp = hp.energy(t, k_hp);
    const double e_lp = lp.energy(t, k_lp);
    if (e_hp >= kInfEnergy || e_lp >= kInfEnergy) continue;
    const double e = e_hp + e_lp;
    if (e < best.energy_pj) {
      best.feasible = true;
      best.energy_pj = e;
      best.k_hp = k_hp;
      best.k_lp = k_lp;
    }
  }
  return best;
}

// combine_clusters against the literal scan on random tables, with NaN and
// inf cells, ties (integer and signed-zero energies), finite sums that
// overflow to inf, negative energies, and k_total past either table's
// k_blocks: feasibility, the split and the energy bits must all agree.
TEST(Combine, MatchesLiteralScanBitForBit) {
  std::mt19937 rng(0xc0b1e5u);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
  auto energy = [&]() -> double {
    switch (pick(10)) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return kInfEnergy;
      case 2: return -0.0;
      case 3: return -1.5;
      case 4: return 2.0;
      default: return 0.5 * pick(8);
    }
  };
  int feasible = 0;
  int overflowed = 0;  // scans that met a finite-operand sum of inf
  for (int c = 0; c < 3000; ++c) {
    // One case in four is huge: three blocks of 6e307 pJ overflow to inf,
    // so sums of finite cells from both tables do.
    const bool huge = pick(4) == 0;
    auto table = [&]() {
      const int k_blocks = pick(40);
      ClusterItems items;
      for (auto& it : items) {
        it.time_steps = 1 + pick(4);
        it.energy_pj = huge ? 6e307 : energy();
        it.cap_blocks = pick(k_blocks + 2);
      }
      return ClusterDpTable::build(items, pick(90), k_blocks);
    };
    const ClusterDpTable hp = table();
    const ClusterDpTable lp = table();
    const int t = pick(std::min(hp.t_steps(), lp.t_steps()) + 1);
    const int k_total = huge ? 3 + pick(2) : pick(hp.k_blocks() + lp.k_blocks() + 4);
    const CombineResult want = literal_combine(hp, lp, k_total, t);
    const CombineResult got = combine_clusters(hp, lp, k_total, t);
    ASSERT_EQ(got.feasible, want.feasible) << "case=" << c;
    ASSERT_EQ(got.k_hp, want.k_hp) << "case=" << c;
    ASSERT_EQ(got.k_lp, want.k_lp) << "case=" << c;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.energy_pj),
              std::bit_cast<std::uint64_t>(want.energy_pj))
        << "case=" << c;
    feasible += want.feasible ? 1 : 0;
    for (int k_hp = 0; k_hp <= std::min(k_total, hp.k_blocks()); ++k_hp) {
      const int k_lp = k_total - k_hp;
      if (k_lp > lp.k_blocks()) continue;
      const double a = hp.energy(t, k_hp);
      const double b = lp.energy(t, k_lp);
      if (std::isfinite(a) && std::isfinite(b) && std::isinf(a + b)) {
        ++overflowed;
        break;
      }
    }
  }
  EXPECT_GT(feasible, 400);
  EXPECT_GT(overflowed, 200);
}

/// Property sweep: the DP result is optimal and feasible for randomized item
/// parameters.
class KnapsackProperty : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackProperty, DpIsOptimalAndFeasible) {
  const int seed = GetParam();
  // Simple deterministic pseudo-random parameters from the seed.
  auto lcg = [state = static_cast<std::uint32_t>(seed * 2654435761u)]() mutable {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  const ClusterItems items = {
      DpItem{1 + static_cast<int>(lcg() % 5), 1.0 + lcg() % 20,
             static_cast<int>(lcg() % 12)},
      DpItem{1 + static_cast<int>(lcg() % 5), 1.0 + lcg() % 20,
             static_cast<int>(lcg() % 12)},
  };
  const int K = 8;
  const int T = 30;
  const auto table = ClusterDpTable::build(items, T, K);
  // The DP enforces capacity along the traced optimal path (a conservative
  // extension of the paper's Algorithm 1, which assumes capacities suffice).
  // When capacities do not bind (cap >= K for both spaces) it is exactly
  // optimal; when they bind it never under-reports energy and its trace is
  // always a valid placement.
  const bool caps_slack = items[0].cap_blocks >= K && items[1].cap_blocks >= K;
  for (int t = 0; t <= T; t += 3) {
    for (int k = 0; k <= K; ++k) {
      const double expect = cluster_reference(items, t, k);
      if (caps_slack) {
        EXPECT_DOUBLE_EQ(table.energy(t, k), expect)
            << "seed=" << seed << " t=" << t << " k=" << k;
      } else if (table.energy(t, k) < kInfEnergy) {
        EXPECT_GE(table.energy(t, k), expect - 1e-9)
            << "seed=" << seed << " t=" << t << " k=" << k;
      }
      if (table.energy(t, k) < kInfEnergy) {
        const auto [m, s] = table.split(t, k);
        EXPECT_EQ(m + s, k);
        EXPECT_LE(m, items[0].cap_blocks);
        EXPECT_LE(s, items[1].cap_blocks);
        EXPECT_LE(m * items[0].time_steps + s * items[1].time_steps, t);
        EXPECT_DOUBLE_EQ(m * items[0].energy_pj + s * items[1].energy_pj,
                         table.energy(t, k));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackProperty, ::testing::Range(1, 25));

}  // namespace
}  // namespace hhpim::placement
