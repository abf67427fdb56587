#include "placement/lut.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "fleet/device.hpp"
#include "fleet/simulator.hpp"
#include "fleet_cases.hpp"
#include "hhpim/processor.hpp"
#include "mem/nvsim_lite.hpp"
#include "nn/model.hpp"
#include "nn/zoo.hpp"
#include "placement/brute_force.hpp"
#include "placement/lut_cache.hpp"

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

/// The first field where two anchors differ (energies compared as bits), or
/// "" when they are identical.
std::string anchor_diff(const LutEntry& got, const LutEntry& want) {
  if (got.t_constraint != want.t_constraint) return "t_constraint";
  if (got.feasible != want.feasible) return "feasible";
  if (!(got.alloc == want.alloc)) return "alloc";
  if (bits(got.predicted_task_energy) != bits(want.predicted_task_energy)) {
    return "predicted_task_energy";
  }
  return "";
}

/// The first point where two frontiers differ (energies as bits, order
/// included), or "".
std::string frontier_diff(const std::vector<ParetoPoint>& got,
                          const std::vector<ParetoPoint>& want) {
  if (got.size() != want.size()) return "frontier size";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ParetoPoint& g = got[i];
    const ParetoPoint& w = want[i];
    if (!(g.alloc == w.alloc) || bits(g.energy) != bits(w.energy) || g.latency != w.latency ||
        g.sram_weights != w.sram_weights) {
      return "frontier point " + std::to_string(i);
    }
  }
  return "";
}

/// The first difference between a LUT's anchors and frontiers (read through
/// frontier()) and the reference entries `want`, or "".
std::string lut_diff(const AllocationLut& lut, const std::vector<detail::EntrySolve>& want) {
  if (lut.entries().size() != want.size()) return "entry count";
  for (std::size_t i = 0; i < want.size(); ++i) {
    const LutEntry& e = lut.entries()[i];
    std::string d = anchor_diff(e, want[i].entry);
    if (d.empty()) d = frontier_diff(lut.frontier(e), want[i].frontier);
    if (!d.empty()) return "entry " + std::to_string(i) + ": " + d;
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
      ASSERT_EQ(lut_diff(*lut, detail::build_entries(p.cost_model(), lut->params(),
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
    const AllocationLut lut = AllocationLut::build(m, params);
    ASSERT_EQ(lut_diff(lut, detail::build_entries(m, params, detail::RowPlan::kAllRows)), "")
        << "case " << c;
    for (const LutEntry& e : lut.entries()) feasible += e.feasible ? 1 : 0;
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
    const LutEntry anchor = detail::solve_anchor(m, hp, lp, grid, tc);
    const detail::EntrySolve want = detail::solve_all_rows(m, hp, lp, grid, tc);
    ASSERT_EQ(anchor_diff(anchor, want.entry), "") << "case " << c;
    const auto planned = detail::solve_frontier(m, hp, lp, grid, anchor);
    ASSERT_EQ(frontier_diff(planned.frontier, want.frontier), "") << "case " << c;
    fell_back += planned.fell_back ? 1 : 0;
    feasible += anchor.feasible ? 1 : 0;
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
  const Time tc = Time::us(1.0);
  const LutEntry anchor = detail::solve_anchor(m, hp, lp, grid, tc);
  const detail::EntrySolve want = detail::solve_all_rows(m, hp, lp, grid, tc);
  EXPECT_TRUE(anchor.feasible);
  EXPECT_EQ(anchor_diff(anchor, want.entry), "");
  const auto planned = detail::solve_frontier(m, hp, lp, grid, anchor);
  EXPECT_TRUE(planned.fell_back);
  EXPECT_EQ(frontier_diff(planned.frontier, want.frontier), "");
}

// --- Anchors at build time, frontiers on first read ------------------------

/// A random cost model and LUT parameters at real LUT widths (k_blocks
/// 60-129), where the count[] trace sometimes sends a frontier to the
/// all-rows fallback.
std::pair<CostModel, LutParams> wide_lut_case(std::mt19937& rng) {
  auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
  auto shape = [&]() {
    return ClusterShape{static_cast<std::size_t>(1 + pick(4)),
                        static_cast<std::uint64_t>(pick(3) == 0 ? 0 : 1024 * (1 + pick(64))),
                        static_cast<std::uint64_t>(pick(4) == 0 ? 0 : 1024 * (1 + pick(64)))};
  };
  const mem::NvsimLite nvsim;
  const ClusterShape hp = shape();
  const ClusterShape lp = shape();
  const CostModel m = CostModel::build(nvsim.make_spec(1.2, 0.6 + 0.1 * pick(6)), hp, lp,
                                       1.0 + pick(60));
  LutParams params;
  params.slice = Time::us(200.0 + pick(50000));
  params.total_weights = 1 + static_cast<std::uint64_t>(pick(400000));
  params.t_entries = 8 + pick(24);
  params.k_blocks = 60 + pick(70);
  return {m, params};
}

// Single-row anchors equal the anchors of full tables, also for entries
// whose frontier leaves its plan and falls back to all rows.
TEST(LutAnchor, SingleRowAnchorsMatchTheAllRowsBuildAtLutWidths) {
  std::mt19937 rng(0xa1c40u);
  int feasible = 0;
  int fell_back = 0;
  for (int c = 0; c < 40; ++c) {
    const auto [m, params] = wide_lut_case(rng);
    const AllocationLut lut = AllocationLut::build(m, params);
    const auto planned = detail::build_entries(m, params, detail::RowPlan::kPlanned);
    const auto all = detail::build_entries(m, params, detail::RowPlan::kAllRows);
    ASSERT_EQ(lut.entries().size(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(anchor_diff(lut.entries()[i], all[i].entry), "")
          << "case " << c << " entry " << i;
      feasible += all[i].entry.feasible ? 1 : 0;
      fell_back += planned[i].fell_back ? 1 : 0;
    }
    EXPECT_EQ(lut.frontiers_built(), 0u) << "case " << c;
  }
  EXPECT_GT(feasible, 100);
  EXPECT_GT(fell_back, 0);
}

// Concurrent first reads: threads read every entry's frontier in their own
// shuffled order on a fresh LUT. Each entry is built once, every reader gets
// the same vector, and it equals the all-rows build bit for bit. The LUTs
// are the first three drawn that hold a frontier which falls back.
TEST(LutFrontier, ConcurrentFirstReadsMatchTheAllRowsBuild) {
  constexpr int kThreads = 6;
  std::mt19937 rng(0xf2047u);
  int luts = 0;
  for (int draw = 0; luts < 3; ++draw) {
    ASSERT_LT(draw, 400) << "too few LUTs with a fallback frontier";
    const auto [m, params] = wide_lut_case(rng);
    const auto planned = detail::build_entries(m, params, detail::RowPlan::kPlanned);
    if (std::none_of(planned.begin(), planned.end(),
                     [](const detail::EntrySolve& e) { return e.fell_back; })) {
      continue;
    }
    ++luts;
    const auto want = detail::build_entries(m, params, detail::RowPlan::kAllRows);
    const AllocationLut lut = AllocationLut::build(m, params);
    const std::size_t n = lut.entries().size();
    std::vector<std::vector<const std::vector<ParetoPoint>*>> seen(
        kThreads, std::vector<const std::vector<ParetoPoint>*>(n));
    std::latch start{kThreads};
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        std::shuffle(order.begin(), order.end(), std::mt19937(static_cast<unsigned>(t)));
        start.arrive_and_wait();
        for (const std::size_t i : order) seen[t][i] = &lut.frontier(lut.entries()[i]);
      });
    }
    for (std::thread& r : readers) r.join();

    std::size_t feasible = 0;
    for (std::size_t i = 0; i < n; ++i) {
      feasible += lut.entries()[i].feasible ? 1 : 0;
      ASSERT_EQ(frontier_diff(*seen[0][i], want[i].frontier), "")
          << "draw " << draw << " entry " << i;
      for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][i], seen[0][i]);
    }
    EXPECT_EQ(lut.frontiers_built(), feasible) << "draw " << draw;
  }
}

TEST(LutFrontier, RejectsAnEntryOfAnotherLut) {
  const CostModel m = CostModel::build(PowerSpec::paper_45nm(),
                                       ClusterShape{4, 64 * 1024, 64 * 1024},
                                       ClusterShape{4, 64 * 1024, 64 * 1024}, 29.0);
  const LutParams params{Time::ms(10.0), 10000, 8, 8};
  const AllocationLut a = AllocationLut::build(m, params);
  const AllocationLut b = AllocationLut::build(m, params);
  EXPECT_THROW((void)a.frontier(b.entries().back()), std::invalid_argument);
  const LutEntry copy = a.entries().back();
  EXPECT_THROW((void)a.frontier(copy), std::invalid_argument);
  EXPECT_FALSE(a.frontier(a.entries().back()).empty());
  EXPECT_EQ(a.frontiers_built(), 1u);
  EXPECT_EQ(b.frontiers_built(), 0u);
}

// Who reads a frontier: no run without an SLO does, and an SLO fleet builds
// one per distinct entry its SLOs resolve to.
TEST(LutFrontier, BuiltOnlyForTheEntriesAnSloFleetReads) {
  using fleet::cases::small_fleet;
  const fleet::FleetSpec plain = small_fleet(12, 4);
  const nn::Model& model = plain.models[0];
  // The LUT a run left in `cache` (a cache hit, not a rebuild; the cache
  // keeps it alive).
  const auto lut_in = [&](LutCache& cache) {
    const sys::Processor probe{fleet::Device::device_config(plain, &cache), model};
    EXPECT_EQ(cache.stats().misses, 1u);
    return probe.lut();
  };

  LutCache plain_cache;
  (void)fleet::FleetSimulator{{.threads = 2, .lut_cache = &plain_cache}}.run(plain);
  EXPECT_EQ(lut_in(plain_cache)->frontiers_built(), 0u);

  LutCache grid_cache;
  exp::ExperimentSpec grid;
  grid.archs = {sys::ArchConfig::hhpim()};
  grid.models = {model};
  workload::ScenarioConfig wc;
  wc.slices = 4;
  grid.scenarios = {exp::ScenarioSpec::of(workload::Scenario::kPulsing, wc),
                    exp::ScenarioSpec::of(workload::Scenario::kRandom, wc)};
  grid.variants.push_back({"", plain.config});
  (void)exp::Runner{{.threads = 2, .lut_cache = &grid_cache}}.run(grid);
  EXPECT_EQ(lut_in(grid_cache)->frontiers_built(), 0u);

  // Three SLO values, two of which resolve to one entry.
  fleet::FleetSpec slo = plain;
  const std::int64_t slice_ps = lut_in(plain_cache)->slice().as_ps();
  slo.latency_slo = Time::ps(slice_ps * 3 / 5);
  slo.slo_overrides = {{.id = 1, .latency_slo = Time::ps(slice_ps * 3 / 5 + 1)},
                       {.id = 2, .latency_slo = Time::ps(slice_ps * 9 / 10)}};
  LutCache slo_cache;
  (void)fleet::FleetSimulator{{.threads = 2, .lut_cache = &slo_cache}}.run(slo);
  const auto lut = lut_in(slo_cache);
  std::set<const LutEntry*> read;
  for (const std::int64_t ps : {slice_ps * 3 / 5, slice_ps * 3 / 5 + 1, slice_ps * 9 / 10}) {
    read.insert(lut->lookup_or_peak(Time::ps(ps)));
  }
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(lut->frontiers_built(), read.size());
}

}  // namespace
}  // namespace hhpim::placement
