#include "placement/lut.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "hhpim/processor.hpp"
#include "mem/nvsim_lite.hpp"
#include "nn/model.hpp"
#include "nn/zoo.hpp"
#include "placement/brute_force.hpp"

namespace hhpim::placement {
namespace {

using energy::PowerSpec;

class LutTest : public ::testing::Test {
 protected:
  static CostModel paper_model(double uses = 29.0) {
    return CostModel::build(PowerSpec::paper_45nm(),
                            ClusterShape{4, 64 * 1024, 64 * 1024},
                            ClusterShape{4, 64 * 1024, 64 * 1024}, uses);
  }

  static AllocationLut small_lut(const CostModel& m, std::uint64_t weights,
                                 Time slice, int entries = 32, int blocks = 32) {
    LutParams p;
    p.slice = slice;
    p.total_weights = weights;
    p.t_entries = entries;
    p.k_blocks = blocks;
    return AllocationLut::build(m, p);
  }
};

TEST_F(LutTest, EntriesCoverTheSliceUniformly) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 10000, Time::ms(10.0));
  ASSERT_EQ(lut.entries().size(), 32u);
  EXPECT_EQ(lut.entries().front().t_constraint, Time::ms(10.0) / 32);
  EXPECT_EQ(lut.entries().back().t_constraint, Time::ms(10.0));
}

TEST_F(LutTest, FeasibleEntriesSumToTotalWeights) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 10000, Time::ms(10.0));
  int feasible = 0;
  for (const auto& e : lut.entries()) {
    if (!e.feasible) continue;
    ++feasible;
    EXPECT_EQ(e.alloc.total(), 10000u);
    EXPECT_TRUE(fits(m, e.alloc));
  }
  EXPECT_GT(feasible, 10);
}

TEST_F(LutTest, FeasibleAllocationsMeetTheirConstraint) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 10000, Time::ms(10.0));
  for (const auto& e : lut.entries()) {
    if (!e.feasible) continue;
    EXPECT_LE(task_time(m, e.alloc).as_ns(), e.t_constraint.as_ns() * 1.0001)
        << "tc=" << e.t_constraint.to_string();
  }
}

TEST_F(LutTest, FeasibilityIsMonotoneInTc) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 10000, Time::ms(10.0));
  bool seen_feasible = false;
  for (const auto& e : lut.entries()) {
    if (e.feasible) seen_feasible = true;
    if (seen_feasible) {
      EXPECT_TRUE(e.feasible);
    }
  }
  EXPECT_TRUE(seen_feasible);
}

TEST_F(LutTest, EnergyDecreasesAsConstraintRelaxes) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 50000, Time::ms(40.0));
  const auto& entries = lut.entries();
  const LutEntry* first = nullptr;
  const LutEntry* last = nullptr;
  for (const auto& e : entries) {
    if (e.feasible && first == nullptr) first = &e;
    if (e.feasible) last = &e;
  }
  ASSERT_NE(first, nullptr);
  ASSERT_NE(last, nullptr);
  // The relaxed endpoint is strictly cheaper than the peak (the Fig. 6
  // downward slope), counting retention over each entry's own window.
  EXPECT_LT(last->predicted_task_energy.as_pj(), first->predicted_task_energy.as_pj());
}

TEST_F(LutTest, LookupFloorsAndClamps) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 10000, Time::ms(3.2));
  const Time step = Time::ms(0.1);
  const auto& e = lut.lookup(step * 5 + Time::us(1.0));
  EXPECT_EQ(e.t_constraint, step * 5);
  // Exactly on a grid point returns that point.
  EXPECT_EQ(lut.lookup(step * 7).t_constraint, step * 7);
  // Clamp below and above.
  EXPECT_EQ(lut.lookup(Time::ps(1)).t_constraint, step);
  EXPECT_EQ(lut.lookup(Time::ms(99)).t_constraint, Time::ms(3.2));
}

TEST_F(LutTest, PeakBoundaryExists) {
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 50000, Time::ms(40.0));
  const Time peak = lut.peak_t_constraint();
  EXPECT_GT(peak, Time::zero());
  EXPECT_LT(peak, Time::ms(40.0));
  // Left of the boundary: infeasible (the paper's grey region).
  EXPECT_FALSE(lut.lookup(peak - Time::ms(40.0) / 32).feasible);
}

TEST_F(LutTest, MatchesBruteForceOnCoarseGrid) {
  // Make blocks == brute-force granularity so both optimize the same
  // discretized problem.
  const CostModel m = paper_model(10.0);
  const std::uint64_t K = 1200;
  const Time slice = Time::us(400.0);
  LutParams p;
  p.slice = slice;
  p.total_weights = K;
  p.t_entries = 16;
  p.k_blocks = 12;  // blocks of 100 weights
  const auto lut = AllocationLut::build(m, p);

  for (const auto& e : lut.entries()) {
    const auto bf = brute_force_placement(m, K, e.t_constraint, 100);
    EXPECT_EQ(e.feasible, bf.feasible) << e.t_constraint.to_string();
    if (e.feasible && bf.feasible) {
      // DP quantizes time upward, so it may be slightly conservative, but
      // never better than brute force and within one block of it.
      const double dp = task_energy(m, e.alloc, e.t_constraint).as_pj();
      const double ref = bf.energy.as_pj();
      EXPECT_GE(dp, ref - 1.0) << e.t_constraint.to_string();
      const double block_margin =
          m.at(Space::kHpMram).dyn_per_weight.as_pj() * 100 * 2;
      EXPECT_LE(dp, ref + block_margin) << e.t_constraint.to_string();
    }
  }
}

TEST_F(LutTest, WhollyInfeasibleTableClampsGracefully) {
  // A slice so short that even the peak placement misses every entry: the
  // paper's grey region covers the whole table. lookup() still floors,
  // lookup_or_peak() reports the miss, peak_t_constraint() saturates.
  const CostModel m = paper_model();
  const auto lut = small_lut(m, 500000, Time::us(1.0));
  for (const auto& e : lut.entries()) {
    EXPECT_FALSE(e.feasible);
    EXPECT_EQ(e.alloc.total(), 0u);
  }
  EXPECT_EQ(lut.lookup_or_peak(Time::us(0.5)), nullptr);
  EXPECT_EQ(lut.peak_t_constraint(), Time::max());
  EXPECT_FALSE(lut.lookup(Time::us(0.9)).feasible);
}

TEST_F(LutTest, ZeroCapacityEverywhereIsInfeasible) {
  // Shapes with no storage at all: every entry infeasible, no crash.
  const CostModel m = CostModel::build(PowerSpec::paper_45nm(), ClusterShape{4, 0, 0},
                                       ClusterShape{4, 0, 0}, 10.0);
  const auto lut = small_lut(m, 1000, Time::ms(1.0), 8, 8);
  for (const auto& e : lut.entries()) EXPECT_FALSE(e.feasible);
  EXPECT_EQ(lut.lookup_or_peak(Time::ms(1.0)), nullptr);
}

TEST_F(LutTest, SingleLayerModelBuildsAndAllocatesExactly) {
  // A one-linear-layer model: weights far below one default block, so the
  // LUT must cope with k_blocks greatly exceeding the weight count.
  nn::Model tiny{"tiny", 1.0};
  tiny.input({16, 1, 1});
  tiny.linear("fc", 8);  // 128 weights
  ASSERT_EQ(tiny.structural_params(), 128u);
  const CostModel m = paper_model(tiny.uses_per_weight());
  const auto lut = small_lut(m, tiny.effective_params(), Time::ms(5.0), 16, 64);
  bool any_feasible = false;
  for (const auto& e : lut.entries()) {
    if (!e.feasible) continue;
    any_feasible = true;
    EXPECT_EQ(e.alloc.total(), 128u);
    EXPECT_TRUE(fits(m, e.alloc));
  }
  EXPECT_TRUE(any_feasible);
}

TEST_F(LutTest, BadParamsThrow) {
  const CostModel m = paper_model();
  LutParams p;
  p.slice = Time::zero();
  p.total_weights = 10;
  EXPECT_THROW(AllocationLut::build(m, p), std::invalid_argument);
  p.slice = Time::ms(1.0);
  p.total_weights = 0;
  EXPECT_THROW(AllocationLut::build(m, p), std::invalid_argument);
  // The DP traces block counts through uint16 counters.
  p.total_weights = 1'000'000;
  p.k_blocks = kMaxDpBlocks + 1;
  EXPECT_THROW(AllocationLut::build(m, p), std::invalid_argument);
}

TEST(PickResolution, RespectsBudget) {
  // 1 % of a 100 ms slice at 1000 cells/us -> 1000 us budget -> 1e6 cells.
  const auto r = pick_resolution(Time::ms(100.0), 0.01, 1000.0);
  EXPECT_GE(r.t_entries, 8);
  EXPECT_LE(r.estimated_us, 1000.0);
  // Double the budget, never a smaller resolution.
  const auto r2 = pick_resolution(Time::ms(200.0), 0.01, 1000.0);
  EXPECT_GE(r2.t_entries, r.t_entries);
}

TEST(PickResolution, CapsAtMaxResolution) {
  const auto r = pick_resolution(Time::s(100.0), 0.5, 1e9, 256);
  EXPECT_LE(r.t_entries, 256);
}

// --- Row-planned entries: bit-identical to the all-rows build --------------

std::uint64_t bits(Energy e) { return std::bit_cast<std::uint64_t>(e.as_pj()); }

/// The first field where two entries differ (energies compared as bits), or
/// "" when they are identical.
std::string entry_diff(const LutEntry& got, const LutEntry& want) {
  if (got.t_constraint != want.t_constraint) return "t_constraint";
  if (got.feasible != want.feasible) return "feasible";
  if (!(got.alloc == want.alloc)) return "alloc";
  if (bits(got.predicted_task_energy) != bits(want.predicted_task_energy)) {
    return "predicted_task_energy";
  }
  if (got.frontier.size() != want.frontier.size()) return "frontier size";
  for (std::size_t i = 0; i < got.frontier.size(); ++i) {
    const ParetoPoint& g = got.frontier[i];
    const ParetoPoint& w = want.frontier[i];
    if (!(g.alloc == w.alloc) || bits(g.energy) != bits(w.energy) || g.latency != w.latency ||
        g.sram_weights != w.sram_weights) {
      return "frontier point " + std::to_string(i);
    }
  }
  return "";
}

std::string entries_diff(const std::vector<LutEntry>& got, const std::vector<LutEntry>& want) {
  if (got.size() != want.size()) return "entry count";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::string d = entry_diff(got[i], want[i]); !d.empty()) {
      return "entry " + std::to_string(i) + ": " + d;
    }
  }
  return "";
}

// The grid-dse LUTs: HH-PIM x the three paper models x the NVSim-lite
// Vdd_LP sweep, at the default r128 resolution.
TEST(LutRowPlan, GridDseLutsMatchTheAllRowsBuild) {
  const mem::NvsimLite nvsim;
  for (const double vdd : {1.1, 1.0, 0.9, 0.8, 0.7, 0.6}) {
    for (const nn::Model& model : nn::zoo::paper_models()) {
      sys::SystemConfig c;
      c.arch = sys::ArchConfig::hhpim();
      c.power = nvsim.make_spec(1.2, vdd);
      const sys::Processor p{c, model};
      const AllocationLut* lut = p.lut();
      ASSERT_NE(lut, nullptr);
      ASSERT_EQ(lut->params().k_blocks, 128);
      ASSERT_EQ(entries_diff(lut->entries(),
                             detail::build_entries(p.cost_model(), lut->params(),
                                                   detail::RowPlan::kAllRows)),
                "")
          << model.name() << " @ Vdd_LP " << vdd;
    }
  }
}

TEST(LutRowPlan, FuzzedCostModelsMatchTheAllRowsBuild) {
  std::mt19937 rng(0x10ca1u);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
  const mem::NvsimLite nvsim;
  int feasible = 0;
  for (int c = 0; c < 60; ++c) {
    auto shape = [&]() {
      return ClusterShape{static_cast<std::size_t>(1 + pick(4)),
                          static_cast<std::uint64_t>(pick(3) == 0 ? 0 : 1024 * (1 + pick(64))),
                          static_cast<std::uint64_t>(pick(4) == 0 ? 0 : 1024 * (1 + pick(64)))};
    };
    const CostModel m = CostModel::build(nvsim.make_spec(1.2, 0.6 + 0.1 * pick(6)), shape(),
                                         shape(), 1.0 + pick(60));
    LutParams params;
    params.slice = Time::us(200.0 + pick(50000));
    params.total_weights = 1 + static_cast<std::uint64_t>(pick(400000));
    params.t_entries = 8 + pick(40);
    params.k_blocks = 4 + pick(60);
    const auto planned = detail::build_entries(m, params, detail::RowPlan::kPlanned);
    ASSERT_EQ(entries_diff(planned, detail::build_entries(m, params, detail::RowPlan::kAllRows)),
              "")
        << "case " << c;
    for (const LutEntry& e : planned) feasible += e.feasible ? 1 : 0;
  }
  EXPECT_GT(feasible, 300);
}

// Random cluster pairs straight into the per-entry solve, where the count[]
// trace often makes a budget the closed-form bound admits DP-infeasible:
// those entries leave their plan, rebuild with all rows and still match.
TEST(LutRowPlan, FuzzedClusterPairsMatchAndSomeFallBack) {
  std::mt19937 rng(0xfa11bacu);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
  const CostModel m = CostModel::build(PowerSpec::paper_45nm(), ClusterShape{},
                                       ClusterShape{}, 29.0);
  int fell_back = 0;
  int feasible = 0;
  for (int c = 0; c < 3000; ++c) {
    const int k_total = 1 + pick(12);
    auto items = [&]() {
      ClusterItems it;
      for (DpItem& d : it) {
        d.time_steps = 1 + pick(8);
        d.energy_pj = 1.0 + pick(40);
        d.cap_blocks = pick(k_total + 1);
      }
      return it;
    };
    const ClusterItems hp = items();
    const ClusterItems lp = items();
    const detail::EntryGrid grid{k_total, 16 * k_total, 1, static_cast<std::uint64_t>(k_total)};
    const Time tc = Time::us(1.0);
    const auto planned = detail::solve_entry(m, hp, lp, grid, tc, detail::RowPlan::kPlanned);
    const auto all = detail::solve_entry(m, hp, lp, grid, tc, detail::RowPlan::kAllRows);
    ASSERT_FALSE(all.fell_back) << "case " << c;
    ASSERT_EQ(entry_diff(planned.entry, all.entry), "") << "case " << c;
    fell_back += planned.fell_back ? 1 : 0;
    feasible += planned.entry.feasible ? 1 : 0;
  }
  EXPECT_GT(feasible, 1000);
  EXPECT_GT(fell_back, 10);
}

// The count[] counterexample (tests/test_knapsack.cpp) as the HP cluster,
// with no LP cluster: the bound admits budget 9, the DP rejects it, so the
// budget search leaves the plan and the entry takes the fallback.
TEST(LutRowPlan, CountTraceCounterexampleTakesTheFallback) {
  const CostModel m = CostModel::build(PowerSpec::paper_45nm(), ClusterShape{},
                                       ClusterShape{}, 29.0);
  const ClusterItems hp = {DpItem{1, 50.0, 4}, DpItem{3, 49.0, 1}};
  const ClusterItems lp = {DpItem{1, 0.0, 0}, DpItem{1, 0.0, 0}};
  const detail::EntryGrid grid{5, 80, 1, 5};
  const auto planned = detail::solve_entry(m, hp, lp, grid, Time::us(1.0),
                                           detail::RowPlan::kPlanned);
  const auto all = detail::solve_entry(m, hp, lp, grid, Time::us(1.0),
                                       detail::RowPlan::kAllRows);
  EXPECT_TRUE(planned.fell_back);
  EXPECT_FALSE(all.fell_back);
  EXPECT_TRUE(planned.entry.feasible);
  EXPECT_EQ(entry_diff(planned.entry, all.entry), "");
}

}  // namespace
}  // namespace hhpim::placement
