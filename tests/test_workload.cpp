#include "workload/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"

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

TEST(Scenario, NanParametersAreRefused) {
  // A NaN compares false against every bound, so each range check is
  // written as "not in range": a NaN decay or mean throws instead of
  // reaching std::llround or Knuth's loop.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ScenarioConfig bad;
  bad.burst_decay = nan;
  EXPECT_THROW((void)generate(Scenario::kBurstDecay, bad), std::invalid_argument);
  bad = ScenarioConfig{};
  bad.poisson_mean = nan;
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

TEST(Scenario, PeriodsMustBePositive) {
  for (const Scenario s : {Scenario::kPeriodicSpike, Scenario::kPeriodicSpikeFrequent,
                           Scenario::kPulsing}) {
    ScenarioConfig bad;
    bad.spike_period = 0;
    bad.spike_period_frequent = -1;
    bad.pulse_width = 0;
    EXPECT_THROW((void)generate(s, bad), std::invalid_argument) << to_string(s);
  }
}

// --- LoadStream vs the literal materialize-rotate-scale reference ------------

namespace literal {

// The trace generator, rotation and envelope exactly as they were written
// before LoadStream: every value materialized, the Poisson limit recomputed
// per draw, the rotation a std::rotate, the envelope a second pass.

int poisson_draw(Rng& rng, double mean) {
  const double limit = std::exp(-mean);
  double p = 1.0;
  int k = 0;
  do {
    ++k;
    p *= rng.next_double();
  } while (p > limit);
  return k - 1;
}

std::vector<int> generate(Scenario s, const ScenarioConfig& cfg) {
  std::vector<int> loads(static_cast<std::size_t>(cfg.slices), cfg.low);
  switch (s) {
    case Scenario::kLowConstant:
      break;
    case Scenario::kHighConstant:
      std::fill(loads.begin(), loads.end(), cfg.high);
      break;
    case Scenario::kPeriodicSpike:
      for (int i = 0; i < cfg.slices; i += cfg.spike_period) {
        loads[static_cast<std::size_t>(i)] = cfg.high;
      }
      break;
    case Scenario::kPeriodicSpikeFrequent:
      for (int i = 0; i < cfg.slices; i += cfg.spike_period_frequent) {
        loads[static_cast<std::size_t>(i)] = cfg.high;
      }
      break;
    case Scenario::kPulsing:
      for (int i = 0; i < cfg.slices; ++i) {
        const bool high_phase = (i / cfg.pulse_width) % 2 == 0;
        loads[static_cast<std::size_t>(i)] = high_phase ? cfg.high : cfg.low;
      }
      break;
    case Scenario::kRandom: {
      Rng rng{cfg.seed};
      for (auto& l : loads) l = static_cast<int>(rng.next_in(cfg.low, cfg.high));
      break;
    }
    case Scenario::kRamp: {
      const double span = static_cast<double>(cfg.high - cfg.low);
      const double steps = cfg.slices > 1 ? static_cast<double>(cfg.slices - 1) : 1.0;
      for (int i = 0; i < cfg.slices; ++i) {
        loads[static_cast<std::size_t>(i)] =
            cfg.low + static_cast<int>(std::llround(span * static_cast<double>(i) / steps));
      }
      break;
    }
    case Scenario::kBurstDecay: {
      const double span = static_cast<double>(cfg.high - cfg.low);
      for (int i = 0; i < cfg.slices; ++i) {
        const int phase = i % cfg.burst_period;
        const double amplitude = span * std::pow(cfg.burst_decay, static_cast<double>(phase));
        loads[static_cast<std::size_t>(i)] = cfg.low + static_cast<int>(std::llround(amplitude));
      }
      break;
    }
    case Scenario::kPoisson: {
      Rng rng{cfg.seed};
      for (auto& l : loads) l = std::min(cfg.high, poisson_draw(rng, cfg.poisson_mean));
      break;
    }
    case Scenario::kTrace:
      ADD_FAILURE() << "no literal trace generator";
      break;
  }
  return loads;
}

std::vector<int> device_loads(Scenario s, const ScenarioConfig& cfg, int phase, int join,
                              const std::vector<double>& env) {
  std::vector<int> out = literal::generate(s, cfg);
  const auto rot = static_cast<std::size_t>(phase) % out.size();
  std::rotate(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(rot), out.end());
  if (env.empty()) return out;
  const auto j = static_cast<std::size_t>(join < 0 ? 0 : join);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const double m = env[(j + k) % env.size()];
    out[k] = static_cast<int>(static_cast<double>(out[k]) * m + 0.5);
  }
  return out;
}

}  // namespace literal

constexpr Scenario kGeneratorShapes[] = {
    Scenario::kLowConstant, Scenario::kHighConstant, Scenario::kPeriodicSpike,
    Scenario::kPeriodicSpikeFrequent, Scenario::kPulsing, Scenario::kRandom,
    Scenario::kRamp, Scenario::kBurstDecay, Scenario::kPoisson};

TEST(LoadStream, MatchesTheLiteralRotatedScaledTraceBitForBit) {
  // Every generator shape x 200 seeded configs x phases {0, 1, n-1, random}
  // x join/leave windows of a 40-slice horizon x envelope on/off. Each
  // cursor is checked three ways against the literal trace: drained
  // straight, rebuilt from (k, state()) before every arrival (a
  // save/restore at every position), and restored at one random position
  // and drained from there.
  constexpr int kHorizon = 40;
  const std::pair<int, int> windows[] = {{0, 40}, {5, 40}, {0, 17}, {13, 24}, {39, 40}, {0, 1}};
  int checked = 0;
  for (const Scenario s : kGeneratorShapes) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      SplitMix64 sm{seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(s)};
      ScenarioConfig cfg;
      cfg.seed = sm.next();
      cfg.low = static_cast<int>(sm.next() % 4);
      cfg.high = cfg.low + static_cast<int>(sm.next() % 12);
      cfg.spike_period = 1 + static_cast<int>(sm.next() % 9);
      cfg.spike_period_frequent = 1 + static_cast<int>(sm.next() % 5);
      cfg.pulse_width = 1 + static_cast<int>(sm.next() % 7);
      cfg.burst_period = 1 + static_cast<int>(sm.next() % 50);
      cfg.burst_decay = 0.05 + 0.95 * static_cast<double>(sm.next() % 1000) / 999.0;
      cfg.poisson_mean = 0.5 + static_cast<double>(sm.next() % 160) / 10.0;
      std::vector<double> env(kHorizon);
      for (double& m : env) m = static_cast<double>(sm.next() % 2001) / 1000.0;
      for (const auto& [join, leave] : windows) {
        cfg.slices = leave - join;
        const int n = cfg.slices;
        const int random_phase = static_cast<int>(sm.next() % 1000);
        for (const int phase : {0, 1, n - 1, random_phase}) {
          for (const bool enveloped : {false, true}) {
            const std::span<const double> e =
                enveloped ? std::span<const double>{env} : std::span<const double>{};
            const std::vector<int> want = literal::device_loads(
                s, cfg, phase, join, enveloped ? env : std::vector<double>{});
            const std::string where = std::string(to_string(s)) + " seed " +
                                      std::to_string(seed) + " window [" +
                                      std::to_string(join) + "," + std::to_string(leave) +
                                      ") phase " + std::to_string(phase) +
                                      (enveloped ? " enveloped" : "");

            LoadStream straight{s, cfg, phase, join, e};
            ASSERT_EQ(straight.size(), n) << where;
            std::vector<int> got;
            while (!straight.done()) got.push_back(straight.next());
            ASSERT_EQ(got, want) << where;

            LoadStream hop{s, cfg, phase, join, e};
            got.clear();
            for (int k = 0; k < n; ++k) {
              hop = LoadStream{s, cfg, phase, join, e, k, hop.state()};
              got.push_back(hop.next());
            }
            ASSERT_EQ(got, want) << where << " (restored at every position)";

            const int cut = static_cast<int>(sm.next() % static_cast<std::uint64_t>(n + 1));
            LoadStream head{s, cfg, phase, join, e};
            for (int k = 0; k < cut; ++k) (void)head.next();
            LoadStream tail{s, cfg, phase, join, e, cut, head.state()};
            for (int k = cut; k < n; ++k) {
              ASSERT_EQ(tail.next(), want[static_cast<std::size_t>(k)]) << where << " cut " << cut;
            }
            ASSERT_TRUE(tail.done());
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 9 * 200 * 6 * 4 * 2);
}

TEST(LoadStream, StateIsTheGeneratorWordsOfRandomizedShapesOnly) {
  ScenarioConfig cfg;
  cfg.slices = 12;
  for (const Scenario s : kGeneratorShapes) {
    LoadStream stream{s, cfg, 5};
    EXPECT_EQ(stream.state() != LoadStream::State{}, LoadStream::randomized(s))
        << to_string(s);
    (void)stream.next();
    const bool words = stream.state() != LoadStream::State{};
    EXPECT_EQ(words, LoadStream::randomized(s)) << to_string(s);
    // An unbound cursor carries its words and nothing else.
    const LoadStream saved{stream.state()};
    EXPECT_EQ(saved.state(), stream.state());
    EXPECT_EQ(saved.size(), 0);
    EXPECT_TRUE(saved.done());
  }
}

TEST(LoadStream, StartInPlaceMatchesAFreshStream) {
  // A fleet device restarts the cursor it carries: whatever shape, position
  // and burst table it held before, start() must leave exactly the stream a
  // fresh one is — a deterministic shape's words all zero included.
  ScenarioConfig cfg;
  cfg.slices = 23;
  cfg.burst_period = 11;
  std::vector<double> env(30);
  for (std::size_t i = 0; i < env.size(); ++i) env[i] = 0.25 * static_cast<double>(i % 7);
  for (const Scenario before : kGeneratorShapes) {
    for (const Scenario after : kGeneratorShapes) {
      LoadStream cursor{before, cfg, 4, 2, env};
      for (int k = 0; k < 9; ++k) (void)cursor.next();
      cursor.start(after, cfg, 7, 3, env);
      LoadStream fresh{after, cfg, 7, 3, env};
      const std::string where = std::string(to_string(before)) + " -> " + to_string(after);
      ASSERT_EQ(cursor.size(), fresh.size()) << where;
      while (!fresh.done()) {
        ASSERT_EQ(cursor.state(), fresh.state()) << where;
        ASSERT_EQ(cursor.next(), fresh.next()) << where;
      }
      ASSERT_TRUE(cursor.done()) << where;
    }
  }
}

TEST(LoadStream, BurstTableFollowsEveryShapeChange) {
  // A restarted cursor keeps its burst table only while low, high, decay
  // and the tabled period (min(burst_period, slices)) are unchanged,
  // streams of other shapes in between included: after each change, and
  // after one back, it yields what generate() does.
  ScenarioConfig base;
  base.slices = 40;
  base.low = 1;
  base.high = 9;
  base.burst_period = 8;
  base.burst_decay = 0.5;
  std::vector<ScenarioConfig> shapes(7, base);
  shapes[1].low = 2;
  shapes[2].high = 12;
  shapes[3].burst_decay = 0.75;
  shapes[4].burst_period = 5;
  shapes[5].slices = 6;  // fewer slices than the period: a shorter table
  shapes[6].seed = 99;   // read by no deterministic shape: the table stays
  LoadStream cursor;
  const auto check = [&](const ScenarioConfig& c, const char* what) {
    cursor.start(Scenario::kBurstDecay, c, 3, 0, {});
    std::vector<int> got;
    while (!cursor.done()) got.push_back(cursor.next());
    const std::vector<int> trace = generate(Scenario::kBurstDecay, c);
    ASSERT_EQ(got.size(), trace.size()) << what;
    for (std::size_t k = 0; k < trace.size(); ++k) {
      ASSERT_EQ(got[k], trace[(k + 3) % trace.size()]) << what << ", arrival " << k;
    }
  };
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const std::string what = "shape " + std::to_string(i);
    check(shapes[i], what.c_str());
    check(base, (what + ", then back").c_str());
    // A pulsing stream of shape i in between, then a burst of shape i.
    cursor.start(Scenario::kPulsing, shapes[i], 0, 0, {});
    check(shapes[i], (what + " after a pulsing stream").c_str());
    cursor.start(Scenario::kPulsing, base, 0, 0, {});
  }
}

TEST(LoadStream, RejectsTracesAndBadPositions) {
  ScenarioConfig cfg;
  cfg.trace = {1, 2, 3};
  EXPECT_THROW((LoadStream{Scenario::kTrace, cfg}), std::invalid_argument);
  EXPECT_THROW((LoadStream{Scenario::kTrace, cfg, 0, 0, {}, 1, LoadStream::State{}}),
               std::invalid_argument);
  ScenarioConfig ok;
  ok.slices = 6;
  const LoadStream::State words = LoadStream{Scenario::kRandom, ok}.state();
  EXPECT_NO_THROW((LoadStream{Scenario::kRandom, ok, 0, 0, {}, 6, words}));
  for (const int k : {-1, 7}) {
    EXPECT_THROW((LoadStream{Scenario::kRandom, ok, 0, 0, {}, k, words}), std::invalid_argument)
        << k;
  }
  // All-zero words would spin the uniform draw's rejection loop forever.
  for (const Scenario s : {Scenario::kRandom, Scenario::kPoisson}) {
    EXPECT_THROW((LoadStream{s, ok, 0, 0, {}, 3, LoadStream::State{}}), std::invalid_argument)
        << to_string(s);
  }
  EXPECT_NO_THROW((LoadStream{Scenario::kPulsing, ok, 0, 0, {}, 3, LoadStream::State{}}));
  ScenarioConfig bad;
  bad.slices = 0;
  EXPECT_THROW((LoadStream{Scenario::kLowConstant, bad}), std::invalid_argument);
}

TEST(Scenario, SparklineLengthMatches) {
  const auto loads = generate(Scenario::kPulsing, {});
  EXPECT_EQ(sparkline(loads, 10).size(), loads.size());
}

}  // namespace
}  // namespace hhpim::workload
