#include "workload/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

namespace hhpim::workload {
namespace {

TEST(Scenario, Case1LowConstant) {
  const auto loads = generate(Scenario::kLowConstant, {});
  EXPECT_EQ(loads.size(), 50u);
  for (const int l : loads) EXPECT_EQ(l, 2);
}

TEST(Scenario, Case2HighConstant) {
  const auto loads = generate(Scenario::kHighConstant, {});
  for (const int l : loads) EXPECT_EQ(l, 10);
}

TEST(Scenario, Case3PeriodicSpikes) {
  const auto loads = generate(Scenario::kPeriodicSpike, {});
  int spikes = 0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (i % 10 == 0) {
      EXPECT_EQ(loads[i], 10) << i;
      ++spikes;
    } else {
      EXPECT_EQ(loads[i], 2) << i;
    }
  }
  EXPECT_EQ(spikes, 5);
}

TEST(Scenario, Case4FrequentSpikes) {
  const auto loads = generate(Scenario::kPeriodicSpikeFrequent, {});
  int spikes = 0;
  for (const int l : loads) spikes += l == 10 ? 1 : 0;
  EXPECT_EQ(spikes, 13);  // every 4th of 50 slices
}

TEST(Scenario, Case5PulsingAlternates) {
  const auto loads = generate(Scenario::kPulsing, {});
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const bool high = (i / 5) % 2 == 0;
    EXPECT_EQ(loads[i], high ? 10 : 2) << i;
  }
}

TEST(Scenario, Case6RandomDeterministicAndInRange) {
  const auto a = generate(Scenario::kRandom, {});
  const auto b = generate(Scenario::kRandom, {});
  EXPECT_EQ(a, b);  // same seed, same trace
  ScenarioConfig other;
  other.seed = 999;
  const auto c = generate(Scenario::kRandom, other);
  EXPECT_NE(a, c);
  bool varied = false;
  for (const int l : a) {
    EXPECT_GE(l, 2);
    EXPECT_LE(l, 10);
    if (l != a[0]) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(Scenario, ConfigValidation) {
  ScenarioConfig bad;
  bad.slices = 0;
  EXPECT_THROW((void)generate(Scenario::kLowConstant, bad), std::invalid_argument);
  bad.slices = 10;
  bad.low = 5;
  bad.high = 2;
  EXPECT_THROW((void)generate(Scenario::kLowConstant, bad), std::invalid_argument);
}

TEST(Scenario, NamesAndEnumeration) {
  EXPECT_STREQ(case_name(Scenario::kLowConstant), "Case 1");
  EXPECT_STREQ(case_name(Scenario::kRandom), "Case 6");
  EXPECT_STREQ(to_string(Scenario::kPulsing), "high-low-pulsing");
  EXPECT_EQ(all_scenarios().size(), 6u);
  EXPECT_EQ(extended_scenarios().size(), 4u);
  EXPECT_STREQ(to_string(Scenario::kRamp), "ramp");
  EXPECT_STREQ(case_name(Scenario::kPoisson), "poisson");  // no paper case number
}

TEST(Scenario, RampIsMonotoneAndSpansTheRange) {
  const auto loads = generate(Scenario::kRamp, {});
  ASSERT_EQ(loads.size(), 50u);
  EXPECT_EQ(loads.front(), 2);
  EXPECT_EQ(loads.back(), 10);
  for (std::size_t i = 1; i < loads.size(); ++i) {
    EXPECT_GE(loads[i], loads[i - 1]) << i;
  }
}

TEST(Scenario, RampSingleSliceIsLow) {
  ScenarioConfig cfg;
  cfg.slices = 1;
  const auto loads = generate(Scenario::kRamp, cfg);
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_EQ(loads[0], 2);
}

TEST(Scenario, BurstDecayPeaksAtPeriodStartAndDecays) {
  ScenarioConfig cfg;
  cfg.slices = 32;
  cfg.burst_period = 8;
  cfg.burst_decay = 0.5;
  const auto loads = generate(Scenario::kBurstDecay, cfg);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (i % 8 == 0) {
      EXPECT_EQ(loads[i], cfg.high) << i;  // burst start hits the peak
    } else {
      EXPECT_LE(loads[i], loads[i - 1]) << i;  // monotone within a burst
    }
    EXPECT_GE(loads[i], cfg.low);
  }
  // Geometric decay with factor 0.5: 10, 6, 4, 3, ...
  EXPECT_EQ(loads[1], 6);
  EXPECT_EQ(loads[2], 4);
}

TEST(Scenario, BurstDecayValidation) {
  ScenarioConfig bad;
  bad.burst_decay = 0.0;
  EXPECT_THROW((void)generate(Scenario::kBurstDecay, bad), std::invalid_argument);
  bad.burst_decay = 0.5;
  bad.burst_period = 0;
  EXPECT_THROW((void)generate(Scenario::kBurstDecay, bad), std::invalid_argument);
}

TEST(Scenario, PoissonMeanWithinToleranceUnderFixedSeed) {
  ScenarioConfig cfg;
  cfg.slices = 4000;
  cfg.high = 100;  // cap far above the mean: clamping bias is negligible
  cfg.poisson_mean = 4.0;
  const auto loads = generate(Scenario::kPoisson, cfg);
  double sum = 0;
  for (const int l : loads) {
    EXPECT_GE(l, 0);
    EXPECT_LE(l, cfg.high);
    sum += l;
  }
  const double mean = sum / static_cast<double>(loads.size());
  EXPECT_NEAR(mean, cfg.poisson_mean, 0.15);  // ~5 sigma at n = 4000

  // Determinism: same seed, same draw sequence.
  EXPECT_EQ(generate(Scenario::kPoisson, cfg), loads);
  ScenarioConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(generate(Scenario::kPoisson, other), loads);
}

TEST(Scenario, PoissonClampsToHigh) {
  ScenarioConfig cfg;
  cfg.slices = 200;
  cfg.high = 3;
  cfg.poisson_mean = 8.0;
  for (const int l : generate(Scenario::kPoisson, cfg)) {
    EXPECT_LE(l, 3);
  }
}

TEST(Scenario, PoissonValidation) {
  ScenarioConfig bad;
  bad.poisson_mean = 0.0;
  EXPECT_THROW((void)generate(Scenario::kPoisson, bad), std::invalid_argument);
  // Means past the exp(-mean) underflow point would degenerate silently.
  bad.poisson_mean = 800.0;
  EXPECT_THROW((void)generate(Scenario::kPoisson, bad), std::invalid_argument);
}

TEST(Scenario, TraceReplayRoundTripsThroughAFile) {
  const std::vector<int> original = generate(Scenario::kPulsing, {});
  const std::string path = "test_workload_trace.tmp";
  save_trace(path, original);
  EXPECT_EQ(load_trace(path), original);

  ScenarioConfig cfg;
  cfg.trace_path = path;
  EXPECT_EQ(generate(Scenario::kTrace, cfg), original);
  std::remove(path.c_str());
}

TEST(Scenario, TraceReplayInlineAndValidation) {
  ScenarioConfig cfg;
  cfg.trace = {1, 0, 7, 3};
  EXPECT_EQ(generate(Scenario::kTrace, cfg), (std::vector<int>{1, 0, 7, 3}));

  ScenarioConfig empty;
  EXPECT_THROW((void)generate(Scenario::kTrace, empty), std::invalid_argument);
  ScenarioConfig negative;
  negative.trace = {1, -2};
  EXPECT_THROW((void)generate(Scenario::kTrace, negative), std::invalid_argument);
  ScenarioConfig missing;
  missing.trace_path = "does-not-exist.trace";
  EXPECT_THROW((void)generate(Scenario::kTrace, missing), std::runtime_error);
}

TEST(Scenario, SparklineLengthMatches) {
  const auto loads = generate(Scenario::kPulsing, {});
  EXPECT_EQ(sparkline(loads, 10).size(), loads.size());
}

}  // namespace
}  // namespace hhpim::workload
