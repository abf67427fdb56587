// Experiment-runner suite: grid expansion, shared-slice protocol, runner vs
// direct Processor parity over the full paper grid (the random grids of
// test_oracle.cpp cover the execution strategies), the memo counts, the PowerSpec override, and the load-bearing property of the
// subsystem — the same spec run at 1 and 8 threads yields byte-identical
// JSON and CSV.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "grid_cases.hpp"
#include "hhpim/metrics.hpp"
#include "hhpim/processor.hpp"
#include "mem/nvsim_lite.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"
#include "workload/scenario.hpp"

namespace hhpim::exp {
namespace {

sys::SystemConfig fast_config() {
  sys::SystemConfig c;
  c.lut_t_entries = 16;
  c.lut_k_blocks = 16;
  return c;
}

ExperimentSpec small_grid(int scenarios_n = 2, int slices = 6) {
  ExperimentSpec spec;
  spec.name = "test-grid";
  const auto table1 = sys::ArchConfig::paper_table1();
  spec.archs.assign(table1.begin(), table1.end());
  spec.models = {nn::zoo::efficientnet_b0()};
  workload::ScenarioConfig wc;
  wc.slices = slices;
  const std::array<workload::Scenario, 3> kinds = {workload::Scenario::kPulsing,
                                                   workload::Scenario::kRandom,
                                                   workload::Scenario::kBurstDecay};
  for (int i = 0; i < scenarios_n; ++i) {
    spec.scenarios.push_back(ScenarioSpec::of(kinds[static_cast<std::size_t>(i) % 3], wc));
  }
  spec.variants.push_back({"", fast_config()});
  return spec;
}

TEST(ExperimentSpec, ExpandCardinalityAndOrder) {
  const ExperimentSpec spec = small_grid(2);
  EXPECT_EQ(spec.run_count(), 8u);  // 4 archs x 1 model x 2 scenarios
  const auto runs = spec.expand();
  ASSERT_EQ(runs.size(), 8u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);
  }
  // Scenario is the middle axis, arch the innermost.
  EXPECT_EQ(runs[0].arch, "Baseline-PIM");
  EXPECT_EQ(runs[3].arch, "HH-PIM");
  EXPECT_EQ(runs[0].scenario, runs[3].scenario);
  EXPECT_NE(runs[0].scenario, runs[4].scenario);
}

TEST(ExperimentSpec, EmptyAxisThrows) {
  ExperimentSpec spec;
  EXPECT_THROW((void)spec.expand(), std::invalid_argument);
}

TEST(ExperimentSpec, LoadsIdenticalAcrossArchsWithinCell) {
  const auto runs = small_grid(2).expand();
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(runs[i].loads, runs[0].loads);
    EXPECT_EQ(runs[i].seed, runs[0].seed);
  }
}

TEST(ExperimentSpec, SeedsDeriveFromGridSeed) {
  ExperimentSpec a = small_grid(1);
  ExperimentSpec b = small_grid(1);
  b.seed = a.seed + 1;
  // The random scenario is index 1 in small_grid(2); use kRandom directly.
  a.scenarios = {ScenarioSpec::of(workload::Scenario::kRandom)};
  b.scenarios = {ScenarioSpec::of(workload::Scenario::kRandom)};
  const auto ra = a.expand();
  const auto rb = b.expand();
  EXPECT_NE(ra[0].seed, rb[0].seed);
  EXPECT_NE(ra[0].loads, rb[0].loads);
}

TEST(ExperimentSpec, SharedSliceMatchesProcessorDerivation) {
  const auto runs = small_grid(1).expand();
  sys::SystemConfig hh = fast_config();
  hh.arch = sys::ArchConfig::hhpim();
  const sys::Processor p{hh, nn::zoo::efficientnet_b0()};
  for (const auto& r : runs) {
    EXPECT_EQ(r.config.slice, p.slice_length()) << r.arch;
  }
  // And derived_slice_length agrees with the Processor's own derivation.
  EXPECT_EQ(sys::derived_slice_length(hh, nn::zoo::efficientnet_b0()), p.slice_length());
}

// The slice memo's differential test: every field of every run, pooled
// (run) and on a processor of its own (execute), equals a fresh
// Processor's run_scenario. Four Table I archs x three models x the nine
// generator shapes plus a random trace with empty slices and loads past 32,
// at the default spec, an NVSim-lite spec and with the host core on.
TEST(Runner, MatchesDirectProcessorRun) {
  ExperimentSpec spec = small_grid(1, 24);
  spec.models = nn::zoo::paper_models();
  spec.scenarios.clear();
  workload::ScenarioConfig wc;
  wc.slices = 24;
  for (int s = 0; s <= static_cast<int>(workload::Scenario::kPoisson); ++s) {
    spec.scenarios.push_back(ScenarioSpec::of(static_cast<workload::Scenario>(s), wc));
  }
  Rng rng{33};
  std::vector<int> loads(48);
  for (int& n : loads) n = rng.next_below(3) == 0 ? 0 : static_cast<int>(rng.next_below(41));
  loads[5] = loads[6] = loads[7] = 37;
  spec.scenarios.push_back(ScenarioSpec::fixed("random-loads", std::move(loads)));
  sys::SystemConfig nvsim = fast_config();
  nvsim.power = mem::NvsimLite{}.make_spec(1.2, 0.7);
  sys::SystemConfig host = fast_config();
  host.host.enabled = true;
  spec.variants.push_back({"nvsim-0.7", nvsim});
  spec.variants.push_back({"host", host});
  spec.variants.front().name = "default";
  ASSERT_EQ(spec.run_count(), 4u * 3u * 10u * 3u);

  placement::LutCache cache;
  RunnerOptions opts;
  opts.threads = 2;
  opts.keep_slices = true;
  opts.lut_cache = &cache;
  const ResultSet pooled = Runner{opts}.run(spec);
  const std::vector<RunSpec> runs = spec.expand();
  ASSERT_EQ(pooled.size(), runs.size());
  std::uint64_t replayed = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult want = cases::direct_result(runs[i], &cache);
    EXPECT_EQ(cases::difference(pooled.runs()[i], want), "");
    EXPECT_EQ(cases::difference(Runner::execute(runs[i], true, &cache), want), "");
    replayed += pooled.runs()[i].memo_replayed;
  }
  EXPECT_GT(replayed, 0u);  // the memo is exercised, not bypassed
}

TEST(Runner, MemoCountsCoverEverySliceAndLeaveBytesAlone) {
  ExperimentSpec spec = small_grid(3, 12);
  RunnerOptions one;
  one.threads = 1;
  one.keep_slices = true;
  RunnerOptions four = one;
  four.threads = 4;
  const ResultSet r1 = Runner{one}.run(spec);
  const ResultSet r4 = Runner{four}.run(spec);
  std::uint64_t slices = 0;
  for (const RunResult& r : r1.runs()) slices += static_cast<std::uint64_t>(r.slices);
  const ResultSet::MemoCounts c1 = r1.memo_counts();
  const ResultSet::MemoCounts c4 = r4.memo_counts();
  EXPECT_EQ(c1.exact + c1.replayed, slices);
  EXPECT_GT(c1.replayed, 0u);
  // Per-run memos: the same counts at any thread count.
  EXPECT_EQ(c1.exact, c4.exact);
  EXPECT_EQ(c1.replayed, c4.replayed);
  // The counts never reach the bytes.
  std::vector<RunResult> zeroed = r1.runs();
  for (RunResult& r : zeroed) r.memo_exact = r.memo_replayed = 0;
  ResultSet without{std::move(zeroed)};
  without.experiment_name = r1.experiment_name;
  for (const bool slices_too : {false, true}) {
    EXPECT_EQ(r1.to_json(slices_too), without.to_json(slices_too));
    EXPECT_EQ(r1.to_json(slices_too), r4.to_json(slices_too));
  }
  EXPECT_EQ(r1.to_csv(), without.to_csv());
}

TEST(Runner, GridIsByteIdenticalAcrossThreadCounts) {
  // The acceptance grid: 4 archs x 3 models x 2 scenarios = 24 runs.
  ExperimentSpec spec = small_grid(2, 4);
  spec.models = nn::zoo::paper_models();
  ASSERT_GE(spec.run_count(), 24u);

  RunnerOptions one;
  one.threads = 1;
  RunnerOptions eight;
  eight.threads = 8;
  const ResultSet r1 = Runner{one}.run(spec);
  const ResultSet r8 = Runner{eight}.run(spec);

  EXPECT_EQ(r1.to_json(), r8.to_json());
  EXPECT_EQ(r1.to_csv(), r8.to_csv());
  EXPECT_FALSE(r1.to_json().empty());
}

TEST(Runner, FilteredSubsetKeepsSparseIndices) {
  // run_all must accept a filtered subset of an expanded grid whose
  // RunSpec::index values are sparse, returning results in input order.
  auto runs = small_grid(2).expand();
  std::vector<RunSpec> subset;
  for (auto& r : runs) {
    if (r.arch == "HH-PIM") subset.push_back(std::move(r));
  }
  ASSERT_EQ(subset.size(), 2u);
  EXPECT_EQ(subset[0].index, 3u);
  EXPECT_EQ(subset[1].index, 7u);
  RunnerOptions opts;
  opts.threads = 2;
  const ResultSet rs = Runner{opts}.run_all(std::move(subset));
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs.runs()[0].index, 3u);  // grid coordinate echoed
  EXPECT_EQ(rs.runs()[1].index, 7u);
  EXPECT_EQ(rs.runs()[0].arch, "HH-PIM");
}

TEST(ExperimentSpec, FixedScenarioWithEmptyLoadsStaysEmpty) {
  ExperimentSpec spec = small_grid(1);
  spec.scenarios = {ScenarioSpec::fixed("empty", {})};
  const auto runs = spec.expand();
  for (const auto& r : runs) EXPECT_TRUE(r.loads.empty());
}

TEST(Runner, KeepSlicesPopulatesPerSliceMetrics) {
  ExperimentSpec spec = small_grid(1, 4);
  RunnerOptions opts;
  opts.threads = 1;
  opts.keep_slices = true;
  const ResultSet rs = Runner{opts}.run(spec);
  for (const auto& r : rs.runs()) {
    ASSERT_EQ(static_cast<int>(r.slice_metrics.size()), r.slices);
    double sum = 0;
    for (const auto& s : r.slice_metrics) sum += s.energy_pj;
    EXPECT_NEAR(sum, r.total_energy_pj, 1e-6 * r.total_energy_pj + 1e-9);
  }
  // Per-slice JSON only appears when requested.
  EXPECT_NE(rs.to_json(true).find("slice_metrics"), std::string::npos);
  EXPECT_EQ(rs.to_json(false).find("slice_metrics"), std::string::npos);
}

TEST(Runner, PropagatesRunFailures) {
  ExperimentSpec spec = small_grid(1);
  // A model too large for Baseline-PIM's 1 MB of SRAM makes that run throw
  // inside a worker; the runner must surface it to the caller.
  nn::Model huge{"huge", 0.8};
  huge.input({64, 32, 32});
  huge.conv("c", 4096, 3, 1);  // 4096 * 64 * 9 ≈ 2.36 M structural params
  huge.calibrate(2 * 1000 * 1000, 20 * 1000 * 1000);
  spec.archs = {sys::ArchConfig::baseline()};
  spec.share_hhpim_slice = false;  // no HH-PIM in the grid
  spec.models = {huge};
  RunnerOptions opts;
  opts.threads = 2;
  EXPECT_THROW((void)Runner{opts}.run(spec), std::invalid_argument);
}

TEST(ResultSet, LookupByCoordinates) {
  const ResultSet rs = Runner{}.run(small_grid(1));
  EXPECT_NE(rs.find("HH-PIM", "EfficientNet-B0", "high-low-pulsing"), nullptr);
  EXPECT_EQ(rs.find("HH-PIM", "EfficientNet-B0", "nope"), nullptr);
  EXPECT_THROW((void)rs.at("HH-PIM", "EfficientNet-B0", "nope"), std::out_of_range);
  const RunResult& hh = rs.at("HH-PIM", "EfficientNet-B0", "high-low-pulsing");
  EXPECT_GT(hh.total_energy_pj, 0.0);
  EXPECT_GT(hh.slice_ps, 0);
}

TEST(SystemConfig, PowerSpecOverrideDefaultIsPaperSpec) {
  // make_spec(1.2, 0.8) reproduces paper_45nm exactly, so overriding with it
  // must not change any metric.
  const auto runs = small_grid(1).expand();
  RunSpec with_override = runs[3];
  with_override.config.power = mem::NvsimLite{}.make_spec(1.2, 0.8);
  const RunResult a = Runner::execute(runs[3]);
  const RunResult b = Runner::execute(with_override);
  EXPECT_EQ(a.total_energy_pj, b.total_energy_pj);
  EXPECT_EQ(a.slice_ps, b.slice_ps);
}

TEST(SystemConfig, PowerSpecOverrideChangesTheOperatingPoint) {
  const auto runs = small_grid(1).expand();
  RunSpec lowered = runs[3];
  lowered.config.power = mem::NvsimLite{}.make_spec(1.2, 0.6);  // slower LP cluster
  lowered.config.slice = Time::zero();  // re-derive T for the new spec
  const RunResult a = Runner::execute(runs[3]);
  const RunResult b = Runner::execute(lowered);
  EXPECT_NE(a.slice_ps, b.slice_ps);
  EXPECT_NE(a.total_energy_pj, b.total_energy_pj);
}

}  // namespace
}  // namespace hhpim::exp
