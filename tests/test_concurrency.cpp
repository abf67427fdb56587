// Concurrency suite for the parallel paths (see docs/PERF.md "Parallel
// scaling"): LutCache accounting and build dedup under mixed
// get_or_build/contains/stats churn, waiter accounting when a joined build
// fails, in-flight visibility in Stats, worker-count resolution and the
// shared claim loop, the shared processor checkout pools, and the outcome
// cache's record/find races on shared states. Fleet byte identity across thread counts is
// the differential oracle's (test_oracle.cpp).
//
// All assertions run on the main thread after workers join — worker
// threads only record into their own slots — so the suite is safe under
// the minigtest shim and clean under ThreadSanitizer (the CI `tsan` job
// runs it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/threads.hpp"
#include "fleet/outcome_cache.hpp"
#include "hhpim/processor.hpp"
#include "hhpim/processor_pool.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim::placement::testing {

/// Holds `cache`'s builds in flight: each announces itself on `entered`,
/// then waits for `release` before it builds.
struct LutBuilds {
  static void hold(LutCache& cache, std::latch& entered, std::latch& release) {
    cache.build_ = [&entered, &release](const CostModel& m, const LutParams& p) {
      entered.count_down();
      release.wait();
      return AllocationLut::build(m, p);
    };
  }
};

}  // namespace hhpim::placement::testing

namespace hhpim {
namespace {

placement::CostModel stress_model(double uses = 29.0) {
  return placement::CostModel::build(energy::PowerSpec::paper_45nm(),
                                     placement::ClusterShape{4, 64 * 1024, 64 * 1024},
                                     placement::ClusterShape{4, 64 * 1024, 64 * 1024},
                                     uses);
}

placement::LutParams stress_params(int resolution) {
  placement::LutParams p;
  p.slice = Time::ms(10.0);
  p.total_weights = 10000;
  p.t_entries = resolution;
  p.k_blocks = resolution;
  return p;
}

// --- LutCache: build dedup + waiter accounting -------------------------------

// Every get_or_build call resolves to exactly one of {hit, miss (it built),
// failed_join (it joined a build that threw)} — regardless of interleaving.
// 8 threads hammer 3 good keys and 1 always-failing key; the identity
// must hold exactly, and no failing call may ever be counted a hit (the
// pre-fix code counted a waiter as a hit the moment it joined, so a failed
// build inflated hits_).
TEST(LutCacheConcurrency, AccountingIdentityUnderMixedGoodAndFailingKeys) {
  placement::LutCache cache;
  const placement::CostModel m = stress_model();
  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  const int resolutions[] = {8, 12, 16};

  placement::LutParams bad = stress_params(8);
  bad.total_weights = 0;  // AllocationLut::build throws std::invalid_argument
  const auto bad_key = placement::LutCacheKey::make(1, 2, m, bad);

  std::atomic<bool> start{false};
  std::vector<std::uint64_t> ok_calls(kThreads), bad_calls(kThreads),
      wrong_outcome(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kIters; ++i) {
        if (i % 3 == 2) {
          try {
            (void)cache.get_or_build(bad_key, m, bad);
            ++wrong_outcome[static_cast<std::size_t>(t)];  // must always throw
          } catch (const std::invalid_argument&) {
            ++bad_calls[static_cast<std::size_t>(t)];
          }
        } else {
          const int res = resolutions[(t + i) % 3];
          const placement::LutParams p = stress_params(res);
          const auto key = placement::LutCacheKey::make(1, 2, m, p);
          try {
            if (cache.get_or_build(key, m, p) != nullptr) {
              ++ok_calls[static_cast<std::size_t>(t)];
            }
          } catch (...) {
            ++wrong_outcome[static_cast<std::size_t>(t)];  // good keys never throw
          }
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  std::uint64_t ok = 0, failed = 0, wrong = 0;
  for (int t = 0; t < kThreads; ++t) {
    ok += ok_calls[static_cast<std::size_t>(t)];
    failed += bad_calls[static_cast<std::size_t>(t)];
    wrong += wrong_outcome[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(ok + failed, static_cast<std::uint64_t>(kThreads) * kIters);

  const auto s = cache.stats();
  // The identity: every call was a hit, a miss, or a failed join.
  EXPECT_EQ(s.hits + s.misses + s.failed_joins, ok + failed);
  // Good keys build exactly once each; every failing call was a builder
  // (miss) or a failed join — never, ever a hit.
  EXPECT_EQ(s.hits, ok - 3u);
  EXPECT_EQ(s.misses + s.failed_joins, failed + 3u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.in_flight, 0u);
}

// A storm on a single always-failing key: whatever the interleaving, no
// call may be classified a hit, and the slot must never stick.
TEST(LutCacheConcurrency, FailedBuildStormNeverCountsHits) {
  placement::LutCache cache;
  const placement::CostModel m = stress_model();
  placement::LutParams bad = stress_params(8);
  bad.total_weights = 0;
  const auto key = placement::LutCacheKey::make(7, 7, m, bad);

  constexpr int kThreads = 8;
  constexpr int kRounds = 16;
  std::uint64_t threw = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::atomic<bool> start{false};
    std::vector<int> caught(kThreads);
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        while (!start.load(std::memory_order_acquire)) {}
        try {
          (void)cache.get_or_build(key, m, bad);
        } catch (...) {
          caught[static_cast<std::size_t>(t)] = 1;
        }
      });
    }
    start.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();
    for (int t = 0; t < kThreads; ++t) threw += static_cast<std::uint64_t>(caught[static_cast<std::size_t>(t)]);
  }

  EXPECT_EQ(threw, static_cast<std::uint64_t>(kThreads) * kRounds);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);  // the satellite bug: waiters on failed builds were hits
  EXPECT_EQ(s.misses + s.failed_joins, threw);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_FALSE(cache.contains(key));
}

// Stats must reflect a build in flight, and a waiter that joins a
// successful build is a hit only once the future resolves. The build is held
// in flight by the test: it blocks until the main thread has read the stats.
TEST(LutCacheConcurrency, StatsReflectInFlightBuilds) {
  placement::LutCache cache;
  const placement::CostModel m = stress_model();
  const placement::LutParams p = stress_params(8);
  const auto key = placement::LutCacheKey::make(3, 4, m, p);
  std::latch entered{1};
  std::latch release{1};
  placement::testing::LutBuilds::hold(cache, entered, release);

  std::thread builder{[&] { (void)cache.get_or_build(key, m, p); }};
  entered.wait();
  const auto during = cache.stats();
  std::thread waiter{[&] { (void)cache.get_or_build(key, m, p); }};
  // The waiter, joined or not, counts nothing until the build resolves.
  const auto joined = cache.stats();
  release.count_down();
  builder.join();
  waiter.join();

  EXPECT_EQ(during.in_flight, 1u);
  EXPECT_EQ(during.entries, 1u);
  EXPECT_EQ(during.misses, 1u);
  EXPECT_EQ(joined.in_flight, 1u);
  EXPECT_EQ(joined.hits, 0u);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);  // the waiter, joined or arriving after the build
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.in_flight, 0u);
}

// Mixed get_or_build/contains/stats churn: every call returns a usable LUT,
// each key builds once, and the accounting identity holds exactly.
TEST(LutCacheConcurrency, MixedGetContainsStatsStress) {
  placement::LutCache cache;
  const placement::CostModel m = stress_model();
  constexpr int kThreads = 6;
  constexpr int kIters = 40;
  const int resolutions[] = {8, 12};

  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> bad_luts(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kIters; ++i) {
        const int res = resolutions[(t + i) % 2];
        const placement::LutParams p = stress_params(res);
        const auto key = placement::LutCacheKey::make(1, 2, m, p);
        const auto lut = cache.get_or_build(key, m, p);
        if (lut == nullptr ||
            lut->entries().size() != static_cast<std::size_t>(res) ||
            !cache.contains(key)) {
          ++bad_luts[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  std::uint64_t torn_stats = 0;
  std::thread churner{[&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto s = cache.stats();
      if (s.in_flight > s.entries || s.entries > 2) ++torn_stats;
      (void)cache.contains(placement::LutCacheKey{});
      std::this_thread::yield();
    }
  }};
  start.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  stop.store(true, std::memory_order_release);
  churner.join();

  std::uint64_t bad = 0;
  for (int t = 0; t < kThreads; ++t) bad += bad_luts[static_cast<std::size_t>(t)];
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(torn_stats, 0u);
  EXPECT_FALSE(cache.contains(placement::LutCacheKey{}));
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads) * kIters - 2u);
  EXPECT_EQ(s.failed_joins, 0u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.in_flight, 0u);
}

// --- worker resolution and the shared claim loop -----------------------------

TEST(ResolveWorkers, ClampsToItems) {
  EXPECT_EQ(resolve_workers(8, 3), 3u);
  EXPECT_EQ(resolve_workers(8, 100), 8u);
  EXPECT_EQ(resolve_workers(2, 2), 2u);
  EXPECT_EQ(resolve_workers(8, 1), 1u);
  EXPECT_EQ(resolve_workers(8, 0), 1u);   // zero-device fleet, empty grid
  EXPECT_GE(resolve_workers(0, 64), 1u);  // 0 = one per CPU
}

TEST(ResolveThreads, DefaultCountHonoursTheAffinityMask) {
  EXPECT_EQ(resolve_threads(3), 3u);  // an explicit request always wins
#if defined(__linux__)
  // Pin this thread to the first CPU of its mask, resolve, restore the mask
  // before any assertion can return early.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const unsigned pinned = resolve_threads(0);
  const unsigned workers = resolve_workers(0, 64);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(workers, 1u);
  EXPECT_EQ(resolve_threads(0), static_cast<unsigned>(CPU_COUNT(&saved)));
#else
  GTEST_SKIP() << "no affinity mask on this platform";
#endif
}

// Every index runs exactly once at any worker count, a throwing index does
// not stop the others, and the exception surfaces after the join. One worker
// runs inline on the calling thread.
TEST(ClaimEach, RunsEveryIndexOnceAndRethrowsAfterTheJoin) {
  constexpr std::size_t kItems = 100;
  for (const unsigned workers : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> runs(kItems);
    std::vector<std::atomic<int>> by_worker(workers);
    std::atomic<int> off_caller{0};
    const std::thread::id caller = std::this_thread::get_id();
    try {
      claim_each(kItems, workers, [&](unsigned worker, std::size_t i) {
        runs[i].fetch_add(1);
        by_worker[worker].fetch_add(1);
        if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
        if (i % 10 == 3) throw std::runtime_error("index " + std::to_string(i));
      });
      ADD_FAILURE() << "workers=" << workers << ": no exception surfaced";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("index ", 0), 0u) << e.what();
    }
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "workers=" << workers << " index " << i;
    }
    int claimed = 0;
    for (const auto& n : by_worker) claimed += n.load();
    EXPECT_EQ(claimed, static_cast<int>(kItems));
    if (workers == 1) {
      EXPECT_EQ(off_caller.load(), 0);
    }
  }
  int calls = 0;
  claim_each(0, 4, [&](unsigned, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// The lowest failing index's exception surfaces, not the first in time:
// index 40 throws while index 3 still waits for it, and 3 is reported.
TEST(ClaimEach, RethrowsTheLowestFailingIndex) {
  constexpr std::size_t kItems = 64;
  for (int rep = 0; rep < 200; ++rep) {
    std::atomic<bool> high_thrown{false};
    try {
      claim_each(kItems, 4, [&](unsigned, std::size_t i) {
        if (i == 40) {
          high_thrown.store(true);
          throw std::runtime_error("index 40");
        }
        if (i == 3) {
          // Bounded: the other three workers reach index 40 meanwhile.
          for (int spin = 0; spin < 100000 && !high_thrown.load(); ++spin) {
            std::this_thread::yield();
          }
          throw std::runtime_error("index 3");
        }
      });
      ADD_FAILURE() << "rep " << rep << ": no exception surfaced";
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(std::string(e.what()), "index 3") << "rep " << rep;
    }
  }
}

// --- shared processor checkout pool ------------------------------------------

TEST(ProcessorPool, ConcurrentCheckoutsAreDistinctAndRecycled) {
  sys::SystemConfig cfg;
  cfg.arch = sys::ArchConfig::hhpim();
  cfg.lut_t_entries = 8;
  cfg.lut_k_blocks = 8;
  const nn::Model model = nn::zoo::efficientnet_b0();
  placement::LutCache cache;
  cfg.lut_cache = &cache;

  sys::ProcessorPool pool;
  constexpr int kLeases = 4;
  {
    // Held simultaneously -> distinct processors, nothing idle.
    std::vector<sys::ProcessorPool::Lease> leases;
    leases.reserve(kLeases);
    for (int i = 0; i < kLeases; ++i) leases.push_back(pool.checkout(cfg, model));
    for (int a = 0; a < kLeases; ++a) {
      for (int b = a + 1; b < kLeases; ++b) {
        EXPECT_NE(&leases[static_cast<std::size_t>(a)].get(),
                  &leases[static_cast<std::size_t>(b)].get());
      }
    }
    EXPECT_EQ(pool.size(), 0u);
  }
  // All returned; sequential checkouts now recycle instead of constructing.
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(kLeases));
  {
    const auto lease = pool.checkout(cfg, model);
    EXPECT_EQ(pool.size(), static_cast<std::size_t>(kLeases) - 1);
  }
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(kLeases));

  // Concurrent checkout/run/return churn: leases never alias.
  constexpr int kThreads = 8;
  std::atomic<bool> start{false};
  std::vector<std::uint64_t> aliased(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int i = 0; i < 25; ++i) {
        const auto a = pool.checkout(cfg, model);
        const auto b = pool.checkout(cfg, model);
        if (&a.get() == &b.get()) ++aliased[static_cast<std::size_t>(t)];
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  std::uint64_t alias_total = 0;
  for (int t = 0; t < kThreads; ++t) alias_total += aliased[static_cast<std::size_t>(t)];
  EXPECT_EQ(alias_total, 0u);
}

// --- outcome-cache record/find race ------------------------------------------

// 8 threads race find/record on four shared states, 48 keys each — the
// device-memo access pattern (miss -> run exact -> record, published at
// once) — while rows regrow under the readers (a row starts with 8 slots).
// Each writer tags its outcome with its thread, so the first writer of a
// key is visible: every outcome any thread gets back for a key must be that
// one entry, complete, and point at the key's interned next state. Workers
// record into their own slots (find() itself counts nothing); asserts run
// after the join (TSan-clean).
TEST(FleetConcurrency, OutcomeCacheRecordFindRace) {
  constexpr int kThreads = 8;
  constexpr std::uint32_t kStates = 4;
  constexpr std::uint32_t kKeys = 48;
  constexpr int kIters = 600;
  fleet::OutcomeCache cache;
  std::vector<const fleet::State*> states;
  for (std::uint32_t i = 0; i < kStates; ++i) {
    states.push_back(&cache.intern(1, "state-" + std::to_string(i)));
  }
  // What thread t got back for (state, key): the outcome's address and the
  // writer tag it carries.
  struct Seen {
    const fleet::SliceOutcome* at = nullptr;
    std::uint64_t writer = 0;
  };
  std::vector<std::vector<Seen>> seen(kThreads, std::vector<Seen>(kStates * kKeys));
  std::vector<std::uint64_t> bad(kThreads, 0);
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::vector<Seen>& mine = seen[static_cast<std::size_t>(t)];
      for (int i = 0; i < kIters; ++i) {
        const auto slot = static_cast<std::uint32_t>(i * 7 + t * 13) % (kStates * kKeys);
        const std::uint32_t st = slot / kKeys;
        const std::uint32_t k = slot % kKeys;
        const fleet::SliceKey key{.slo_ps = 0, .n_tasks = k,
                                  .mode = static_cast<std::uint8_t>(k % 3), .tier = 0};
        const fleet::SliceOutcome* out = states[st]->find(key);
        if (out == nullptr) {
          out = &cache.record(
              *states[st], key,
              fleet::SliceOutcome{.energy_pj = static_cast<double>(slot),
                                  .busy_ps = static_cast<std::int64_t>(k),
                                  .movement_ps = static_cast<std::int64_t>(st),
                                  .host_cycles = static_cast<std::uint64_t>(t),
                                  .deadline_violated = k % 2 == 1},
              "state-" + std::to_string((st + k) % kStates));
        }
        if (out->energy_pj != static_cast<double>(slot) ||
            out->busy_ps != static_cast<std::int64_t>(k) ||
            out->movement_ps != static_cast<std::int64_t>(st) ||
            out->deadline_violated != (k % 2 == 1) ||
            out->next == nullptr) {
          ++bad[static_cast<std::size_t>(t)];
          continue;
        }
        Seen& s = mine[slot];
        if (s.at == nullptr) {
          s = Seen{out, out->host_cycles};
        } else if (s.writer != out->host_cycles) {
          ++bad[static_cast<std::size_t>(t)];  // two writers won one key
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0u);
  std::size_t recorded = 0;
  for (std::uint32_t slot = 0; slot < kStates * kKeys; ++slot) {
    const std::uint32_t st = slot / kKeys;
    const std::uint32_t k = slot % kKeys;
    const fleet::SliceOutcome* now = states[st]->find(
        fleet::SliceKey{.slo_ps = 0, .n_tasks = k, .mode = static_cast<std::uint8_t>(k % 3),
                        .tier = 0});
    if (now == nullptr) continue;
    ++recorded;
    // The next state is the interned one for the key's post bytes.
    EXPECT_EQ(now->next, &cache.intern(1, "state-" + std::to_string((st + k) % kStates)));
    for (int t = 0; t < kThreads; ++t) {
      const Seen& s = seen[static_cast<std::size_t>(t)][slot];
      if (s.at != nullptr) {
        EXPECT_EQ(s.writer, now->host_cycles) << "slot " << slot;
      }
    }
  }
  const fleet::OutcomeCache::Stats s = cache.stats();
  EXPECT_EQ(s.states, kStates);  // every next state was one of the four
  EXPECT_EQ(s.outcomes, recorded);
  EXPECT_EQ(recorded, static_cast<std::size_t>(kStates * kKeys));  // every slot visited
  EXPECT_LE(s.slots_kept, 2 * s.slots);
}

}  // namespace
}  // namespace hhpim
