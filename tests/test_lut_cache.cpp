// Placement-LUT cache suite: key construction (collisions must be
// impossible between differing build inputs), sharing semantics, concurrent
// build deduplication, and the load-bearing acceptance property — a grid run
// with the cache produces byte-identical JSON/CSV to fresh uncached
// construction at any thread count.
#include "placement/lut_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "hhpim/processor.hpp"
#include "nn/model.hpp"
#include "nn/zoo.hpp"
#include "workload/scenario.hpp"

namespace hhpim::placement {
namespace {

CostModel paper_model(double uses = 29.0) {
  return CostModel::build(energy::PowerSpec::paper_45nm(),
                          ClusterShape{4, 64 * 1024, 64 * 1024},
                          ClusterShape{4, 64 * 1024, 64 * 1024}, uses);
}

LutParams small_params(int resolution = 16) {
  LutParams p;
  p.slice = Time::ms(10.0);
  p.total_weights = 10000;
  p.t_entries = resolution;
  p.k_blocks = resolution;
  return p;
}

TEST(LutCacheKey, EqualInputsEqualKeys) {
  const CostModel m = paper_model();
  const auto a = LutCacheKey::make(1, 2, m, small_params());
  const auto b = LutCacheKey::make(1, 2, m, small_params());
  EXPECT_EQ(a, b);
  EXPECT_EQ(LutCacheKey::Hash{}(a), LutCacheKey::Hash{}(b));
}

TEST(LutCacheKey, EveryComponentSeparatesKeys) {
  const CostModel m = paper_model();
  const auto base = LutCacheKey::make(1, 2, m, small_params());
  EXPECT_NE(base, LutCacheKey::make(9, 2, m, small_params()));  // topology
  EXPECT_NE(base, LutCacheKey::make(1, 9, m, small_params()));  // arch
  EXPECT_NE(base, LutCacheKey::make(1, 2, paper_model(30.0), small_params()));
  LutParams p = small_params();
  p.slice = Time::ms(11.0);
  EXPECT_NE(base, LutCacheKey::make(1, 2, m, p));
  p = small_params();
  p.total_weights = 10001;
  EXPECT_NE(base, LutCacheKey::make(1, 2, m, p));
  p = small_params();
  p.t_entries = 17;
  EXPECT_NE(base, LutCacheKey::make(1, 2, m, p));
  p = small_params();
  p.k_blocks = 17;
  EXPECT_NE(base, LutCacheKey::make(1, 2, m, p));
}

TEST(LutCache, GetOrBuildBuildsOnceThenShares) {
  LutCache cache;
  const CostModel m = paper_model();
  const auto key = LutCacheKey::make(1, 2, m, small_params());
  const auto a = cache.get_or_build(key, m, small_params());
  const auto b = cache.get_or_build(key, m, small_params());
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // same instance, not an equal copy
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(LutCache, DistinctKeysDistinctLuts) {
  LutCache cache;
  const CostModel m = paper_model();
  const auto a = cache.get_or_build(LutCacheKey::make(1, 2, m, small_params()), m,
                                    small_params());
  const auto b = cache.get_or_build(LutCacheKey::make(1, 2, m, small_params(32)), m,
                                    small_params(32));
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(LutCache, ConsumersKeepTheirLutPastTheCache) {
  const CostModel m = paper_model();
  const auto key = LutCacheKey::make(1, 2, m, small_params());
  std::shared_ptr<const AllocationLut> a;
  {
    LutCache cache;
    a = cache.get_or_build(key, m, small_params());
    EXPECT_TRUE(cache.contains(key));
  }
  // The cache is gone; the shared_ptr keeps the LUT alive and usable.
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->entries().size(), 16u);
  // A new cache builds a fresh instance.
  LutCache fresh;
  EXPECT_FALSE(fresh.contains(key));
  const auto b = fresh.get_or_build(key, m, small_params());
  EXPECT_NE(a.get(), b.get());
}

TEST(LutCache, FailedBuildPropagatesAndEvicts) {
  LutCache cache;
  const CostModel m = paper_model();
  LutParams bad = small_params();
  bad.total_weights = 0;  // AllocationLut::build throws
  const auto key = LutCacheKey::make(1, 2, m, bad);
  EXPECT_THROW((void)cache.get_or_build(key, m, bad), std::invalid_argument);
  EXPECT_FALSE(cache.contains(key));
  EXPECT_EQ(cache.stats().entries, 0u);
  // The failed builder erased its slot, so the same key builds again — here
  // from good inputs (the cache trusts the key) — and then serves hits.
  const auto retried = cache.get_or_build(key, m, small_params());
  ASSERT_NE(retried, nullptr);
  EXPECT_TRUE(cache.contains(key));
  EXPECT_EQ(cache.get_or_build(key, m, small_params()).get(), retried.get());
  // A fresh key still works alongside it.
  const auto good = LutCacheKey::make(1, 2, m, small_params());
  EXPECT_NE(cache.get_or_build(good, m, small_params()), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 3u);  // the failed build, the retry and the fresh key
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.failed_joins, 0u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.in_flight, 0u);
}

TEST(LutCache, ConcurrentRequestsBuildExactlyOnce) {
  LutCache cache;
  const CostModel m = paper_model();
  const auto key = LutCacheKey::make(1, 2, m, small_params(32));
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const AllocationLut>> got(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&, i] { got[static_cast<std::size_t>(i)] =
                                   cache.get_or_build(key, m, small_params(32)); });
  }
  for (auto& t : pool) t.join();
  for (const auto& p : got) EXPECT_EQ(p.get(), got[0].get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// Two models with equal parameter sums but different layer topology must not
// share a LUT — the cache keys on structure, not on derived totals.
TEST(LutCache, EqualParamSumsDifferentTopologyDoNotCollide) {
  nn::Model a{"sum-800-a", 0.8};
  a.input({10, 1, 1});
  a.linear("l1", 20);   // 10*20 = 200 params
  a.linear("l2", 30);   // 20*30 = 600 params
  nn::Model b{"sum-800-b", 0.8};
  b.input({10, 1, 1});
  b.linear("l1", 40);   // 10*40 = 400 params
  b.linear("l2", 10);   // 40*10 = 400 params
  ASSERT_EQ(a.structural_params(), b.structural_params());
  EXPECT_NE(a.topology_hash(), b.topology_hash());

  const CostModel m = paper_model();
  const auto ka = LutCacheKey::make(a.topology_hash(), 0, m, small_params());
  const auto kb = LutCacheKey::make(b.topology_hash(), 0, m, small_params());
  EXPECT_NE(ka, kb);

  LutCache cache;
  (void)cache.get_or_build(ka, m, small_params());
  (void)cache.get_or_build(kb, m, small_params());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Model, TopologyHashIgnoresNames) {
  nn::Model a{"name-one", 0.8};
  a.input({10, 1, 1});
  a.linear("x", 20);
  nn::Model b{"name-two", 0.8};
  b.input({10, 1, 1});
  b.linear("y", 20);
  EXPECT_EQ(a.topology_hash(), b.topology_hash());
}

// Processor-level sharing: two HH-PIM Processors over the same (model, arch,
// config) resolve to one cache entry, and the cached run's LUT is identical
// to a privately built one.
TEST(LutCacheIntegration, ProcessorsShareOneEntryAndMatchUncached) {
  sys::SystemConfig cfg;
  cfg.arch = sys::ArchConfig::hhpim();
  cfg.lut_t_entries = 16;
  cfg.lut_k_blocks = 16;
  const nn::Model model = nn::zoo::efficientnet_b0();

  LutCache cache;
  sys::SystemConfig cached_cfg = cfg;
  cached_cfg.lut_cache = &cache;
  const sys::Processor p1{cached_cfg, model};
  const sys::Processor p2{cached_cfg, model};
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  ASSERT_NE(p1.lut(), nullptr);
  EXPECT_EQ(p1.lut(), p2.lut());  // literally the same object

  const sys::Processor uncached{cfg, model};
  ASSERT_NE(uncached.lut(), nullptr);
  ASSERT_EQ(uncached.lut()->entries().size(), p1.lut()->entries().size());
  for (std::size_t i = 0; i < uncached.lut()->entries().size(); ++i) {
    const auto& ue = uncached.lut()->entries()[i];
    const auto& ce = p1.lut()->entries()[i];
    EXPECT_EQ(ue.t_constraint, ce.t_constraint);
    EXPECT_EQ(ue.feasible, ce.feasible);
    EXPECT_EQ(ue.alloc, ce.alloc);
    EXPECT_EQ(ue.predicted_task_energy.as_pj(), ce.predicted_task_energy.as_pj());
  }
}

// Every run of `spec` on its own freshly constructed Processor (no pool),
// through `cache` (nullptr = a private LUT build per HH-PIM run).
exp::ResultSet run_fresh(const exp::ExperimentSpec& spec, LutCache* cache) {
  std::vector<exp::RunResult> runs;
  for (const exp::RunSpec& run : spec.expand()) {
    runs.push_back(exp::Runner::execute(run, false, cache, nullptr));
  }
  exp::ResultSet rs{std::move(runs)};
  rs.experiment_name = spec.name;
  return rs;
}

// The acceptance property: grid JSON/CSV through the runner (shared cache,
// pooled processors; 1 and 8 threads) is byte-identical to fresh uncached
// construction per run.
TEST(LutCacheIntegration, GridOutputByteIdenticalCachedVsUncached) {
  exp::ExperimentSpec spec;
  spec.name = "lut-cache-grid";
  const auto table1 = sys::ArchConfig::paper_table1();
  spec.archs.assign(table1.begin(), table1.end());
  spec.models = nn::zoo::paper_models();
  workload::ScenarioConfig wc;
  wc.slices = 4;
  spec.scenarios = {exp::ScenarioSpec::of(workload::Scenario::kPulsing, wc),
                    exp::ScenarioSpec::of(workload::Scenario::kRandom, wc)};
  sys::SystemConfig cfg;
  cfg.lut_t_entries = 16;
  cfg.lut_k_blocks = 16;
  spec.variants.push_back({"", cfg});
  ASSERT_EQ(spec.run_count(), 24u);

  LutCache cache1;
  LutCache cache8;
  const exp::ResultSet r_off = run_fresh(spec, nullptr);
  const exp::ResultSet r_t1 =
      exp::Runner{{.threads = 1, .lut_cache = &cache1}}.run(spec);
  const exp::ResultSet r_t8 =
      exp::Runner{{.threads = 8, .lut_cache = &cache8}}.run(spec);

  EXPECT_EQ(r_off.to_json(), r_t1.to_json());
  EXPECT_EQ(r_off.to_csv(), r_t1.to_csv());
  EXPECT_EQ(r_off.to_json(), r_t8.to_json());
  EXPECT_EQ(r_off.to_csv(), r_t8.to_csv());
  EXPECT_FALSE(r_off.to_json().empty());

  // 6 HH-PIM runs over 3 distinct models: exactly 3 builds each cache. The
  // runner's pool probes the cache once per (config, model) it constructs a
  // processor for — at 1 thread that is 3 probes, all builds, zero hits.
  EXPECT_EQ(cache1.stats().misses, 3u);
  EXPECT_EQ(cache1.stats().hits, 0u);
  EXPECT_EQ(cache8.stats().misses, 3u);

  // Without the pool every HH-PIM run constructs its own processor, and the
  // repeated (model, arch) pairs resolve as cache hits.
  LutCache cache_fresh;
  EXPECT_EQ(r_off.to_json(), run_fresh(spec, &cache_fresh).to_json());
  EXPECT_EQ(cache_fresh.stats().misses, 3u);
  EXPECT_EQ(cache_fresh.stats().hits, 3u);
}

}  // namespace
}  // namespace hhpim::placement
