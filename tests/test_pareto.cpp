// Property tests for the placement Pareto-frontier layer (placement/pareto.hpp
// + the frontier AllocationLut builds per entry on first read, placement/lut.cpp).
//
// The load-bearing invariants, fuzzed over ~200 random (cost model, weight
// count, slice, resolution) specs:
//   * every stored frontier is mutually non-dominated, sorted, and made of
//     allocations that fit and sum to K;
//   * the frontier's strict min-energy point IS the legacy knapsack answer —
//     the same Allocation and the same Energy bits as LutEntry::alloc /
//     predicted_task_energy, so no legacy consumer can observe the frontier;
//   * anchors are monotone across entries up to the retention-window bound
//     E(t2) <= E(t1) * t2/t1 (retention is charged over the entry's own
//     window, so plain monotonicity is deliberately NOT the invariant);
//   * on small block-divisible instances, brute-force enumeration at each
//     frontier point's own latency confirms the point is achievable and not
//     energy-beaten at equal granularity.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "placement/brute_force.hpp"
#include "placement/lut.hpp"
#include "placement/pareto.hpp"

namespace hhpim::placement {
namespace {

using energy::PowerSpec;

/// Random but well-formed cost model: 1-4 modules per cluster, capacities
/// from a small menu (always enough total SRAM+MRAM to be interesting).
CostModel random_cost_model(Rng& rng) {
  const auto kb = [&rng] {
    constexpr std::size_t menu[] = {32, 64, 128};
    return menu[rng.next_below(3)] * 1024;
  };
  const ClusterShape hp{1 + static_cast<std::size_t>(rng.next_below(4)), kb(), kb()};
  const ClusterShape lp{1 + static_cast<std::size_t>(rng.next_below(4)), kb(), kb()};
  const double uses = 5.0 + rng.next_double() * 35.0;
  return CostModel::build(PowerSpec::paper_45nm(), hp, lp, uses);
}

class ParetoFrontierProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParetoFrontierProperty, FrontiersAreSoundAndAnchorTheLegacyAnswer) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 1};
  const CostModel m = random_cost_model(rng);

  LutParams p;
  p.total_weights = 2'000 + rng.next_below(60'000);
  p.slice = Time::us(500.0 + static_cast<double>(rng.next_below(20'000)));
  constexpr int kRes[] = {8, 16, 32};
  p.t_entries = kRes[rng.next_below(3)];
  p.k_blocks = kRes[rng.next_below(3)];
  const AllocationLut lut = AllocationLut::build(m, p);

  bool seen_feasible = false;
  std::vector<const LutEntry*> feasible;
  for (const LutEntry& e : lut.entries()) {
    const std::vector<ParetoPoint>& frontier = lut.frontier(e);
    if (!e.feasible) {
      EXPECT_FALSE(seen_feasible) << "feasibility must be monotone in tc";
      EXPECT_TRUE(frontier.empty());
      continue;
    }
    seen_feasible = true;
    ASSERT_FALSE(frontier.empty()) << e.t_constraint.to_string();

    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const ParetoPoint& pt = frontier[i];
      // Structural soundness: real placements of all K weights.
      EXPECT_EQ(pt.alloc.total(), p.total_weights);
      EXPECT_TRUE(fits(m, pt.alloc));
      // Stored objectives are exactly the evaluator's (no stale caching).
      EXPECT_EQ(pt, evaluate_point(m, pt.alloc, e.t_constraint));
      // Deterministic sort: latency ascending.
      if (i > 0) {
        EXPECT_GE(pt.latency, frontier[i - 1].latency);
      }
      // Mutual non-dominance.
      for (std::size_t j = 0; j < frontier.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(dominates(frontier[j], pt))
            << "point " << j << " dominates point " << i << " at tc="
            << e.t_constraint.to_string();
      }
    }

    // The strict min-energy point is the legacy knapsack answer, bit-exact.
    const ParetoPoint& anchor = min_energy_point(frontier);
    EXPECT_EQ(anchor.alloc, e.alloc);
    EXPECT_EQ(anchor.energy, e.predicted_task_energy);
    for (const ParetoPoint& pt : frontier) {
      if (pt.alloc == anchor.alloc) continue;
      EXPECT_GT(pt.energy, anchor.energy)
          << "anchor must be the STRICT energy minimum";
    }

    feasible.push_back(&e);
  }

  // Window-scaled anchor monotonicity: a relaxed entry could always keep a
  // tight entry's placement, paying its retention power over the longer
  // window — so E(t2) <= E(t1) * t2/t1. Plain E(t2) <= E(t1) is false in
  // general (the window itself grows), and for *nearby* entries even the
  // scaled bound drowns in the DP's upward time quantization (per-item
  // roundup on a 16*k_blocks grid can make the tight placement quantize
  // infeasible at t2) — so only pairs separated by more than that slack are
  // comparable.
  const double quant_slack =
      static_cast<double>(2 * p.k_blocks + 4) / static_cast<double>(16 * p.k_blocks);
  for (std::size_t i = 0; i < feasible.size(); ++i) {
    for (std::size_t j = i + 1; j < feasible.size(); ++j) {
      const double ratio =
          static_cast<double>(feasible[j]->t_constraint.as_ps()) /
          static_cast<double>(feasible[i]->t_constraint.as_ps());
      if (ratio < 1.0 + 2.0 * quant_slack) continue;
      EXPECT_LE(feasible[j]->predicted_task_energy.as_pj(),
                feasible[i]->predicted_task_energy.as_pj() * ratio * (1.0 + 1e-9) + 1.0)
          << feasible[i]->t_constraint.to_string() << " -> "
          << feasible[j]->t_constraint.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoFrontierProperty, ::testing::Range(1, 201));

// --- brute-force cross-validation on small block-divisible instances -------

class ParetoBruteForceProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParetoBruteForceProperty, FrontierPointsSurviveEnumeration) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 0xda3e39cb94b95bdbULL + 7};
  const CostModel m = random_cost_model(rng);

  // K divisible by k_blocks: reconstruct never needs the trim-excess step, so
  // every frontier allocation is block-granular and brute force at the same
  // granularity enumerates a superset of the DP's choices.
  const std::uint64_t block = 30 + rng.next_below(120);
  LutParams p;
  p.k_blocks = 8;
  p.total_weights = block * static_cast<std::uint64_t>(p.k_blocks);
  p.t_entries = 8;
  p.slice = Time::us(200.0 + static_cast<double>(rng.next_below(4'000)));
  const AllocationLut lut = AllocationLut::build(m, p);

  for (const LutEntry& e : lut.entries()) {
    const BruteForceResult bf =
        brute_force_placement(m, p.total_weights, e.t_constraint, block);
    EXPECT_EQ(e.feasible, bf.feasible) << e.t_constraint.to_string();
    if (!e.feasible) continue;
    // Anchor == brute force up to the DP's documented slack (it quantizes
    // time upward; see test_lut.cpp MatchesBruteForceOnCoarseGrid). Compare
    // with the brute-force objective (linearized retention) — the stored
    // predicted_task_energy uses gating-quantized retention and would not be
    // commensurable.
    const double dp = task_energy(m, e.alloc, e.t_constraint).as_pj();
    const double block_margin =
        m.at(Space::kHpMram).dyn_per_weight.as_pj() * static_cast<double>(block) * 2;
    EXPECT_GE(dp, bf.energy.as_pj() - 1.0);
    EXPECT_LE(dp, bf.energy.as_pj() + block_margin);

    for (const ParetoPoint& pt : lut.frontier(e)) {
      // Achievability: enumerating at the point's own latency must find a
      // placement (the point's allocation qualifies), and since brute force
      // charges retention over the tighter window pt.latency <= tc, its
      // optimum can only be cheaper.
      const BruteForceResult at_latency =
          brute_force_placement(m, p.total_weights, pt.latency, block);
      ASSERT_TRUE(at_latency.feasible)
          << "frontier point unreachable at its own latency, tc="
          << e.t_constraint.to_string();
      EXPECT_LE(at_latency.energy.as_pj(), pt.energy.as_pj() * (1.0 + 1e-9) + 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoBruteForceProperty, ::testing::Range(1, 13));

// --- unit coverage of the dominance machinery ------------------------------

ParetoPoint make_point(double energy_pj, std::int64_t latency_ps,
                       std::uint64_t sram) {
  ParetoPoint p;
  p.energy = Energy::pj(energy_pj);
  p.latency = Time::ps(latency_ps);
  p.sram_weights = sram;
  p.alloc.weights = {sram, 0, latency_ps > 0 ? static_cast<std::uint64_t>(latency_ps) : 0, 0};
  return p;
}

TEST(ParetoDominance, RequiresStrictImprovementSomewhere) {
  const ParetoPoint a = make_point(10.0, 100, 5);
  EXPECT_FALSE(dominates(a, a));  // equal on all axes: no strict edge
  EXPECT_TRUE(dominates(a, make_point(10.0, 100, 6)));
  EXPECT_TRUE(dominates(a, make_point(11.0, 120, 5)));
  EXPECT_FALSE(dominates(a, make_point(9.0, 120, 5)));   // trades energy
  EXPECT_FALSE(dominates(a, make_point(11.0, 90, 5)));   // trades latency
  EXPECT_FALSE(dominates(make_point(9.0, 120, 5), a));
}

TEST(ParetoDominance, PruneKeepsOnlyTheFrontier) {
  std::vector<ParetoPoint> pts = {
      make_point(10.0, 100, 5),  // kept
      make_point(12.0, 90, 5),   // kept: faster
      make_point(12.0, 110, 5),  // dominated by the first
      make_point(10.0, 100, 5),  // exact duplicate: deduplicated
      make_point(8.0, 150, 9),   // kept: cheapest
  };
  prune_to_frontier(pts);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].latency, Time::ps(90));
  EXPECT_EQ(pts[1].latency, Time::ps(100));
  EXPECT_EQ(pts[2].latency, Time::ps(150));
}

TEST(ParetoSelectors, PickTheDocumentedEnds) {
  const std::vector<ParetoPoint> f = {make_point(12.0, 90, 7),
                                      make_point(10.0, 100, 5),
                                      make_point(8.0, 150, 2)};
  EXPECT_EQ(min_latency_point(f).latency, Time::ps(90));
  EXPECT_EQ(min_energy_point(f).energy, Energy::pj(8.0));
  ASSERT_NE(best_within_slo(f, Time::ps(120)), nullptr);
  EXPECT_EQ(best_within_slo(f, Time::ps(120))->energy, Energy::pj(10.0));
  ASSERT_NE(best_within_slo(f, Time::ps(90)), nullptr);
  EXPECT_EQ(best_within_slo(f, Time::ps(90))->energy, Energy::pj(12.0));
  EXPECT_EQ(best_within_slo(f, Time::ps(89)), nullptr);
}

}  // namespace
}  // namespace hhpim::placement
