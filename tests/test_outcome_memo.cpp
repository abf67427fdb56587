// Device-level outcome memoization suite: the OutcomeCache key/value
// semantics (exact buckets, first-writer-wins, pointer stability across
// publishes), the processor state digest it keys on, and what a warm memo
// must do on top of the differential oracle's byte identity
// (test_oracle.cpp): count exactly its own lookups, and replay every
// device of a warm fleet, exhaustion slices included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "fleet_cases.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim::fleet {
namespace {

using cases::run_with;
using cases::small_fleet;

/// The CI churn smoke's fleet (fleet_sim --capacity-mj=300
/// --join-fraction=0.3 --leave-fraction=0.3 --charge-period=12
/// --charge-window=4 --charge-mj=2, LUT r16, the default model zoo and
/// scenario mix): joiners, early leavers, charging windows, and a battery
/// most devices exhaust.
FleetSpec churn_fleet(int devices, int slices) {
  FleetSpec spec;
  spec.name = "memo-churn";
  spec.devices = devices;
  spec.slices = slices;
  spec.config = cases::base_config();
  spec.battery.capacity = Energy::mj(300.0);
  spec.lifecycle.join_fraction = 0.3;
  spec.lifecycle.leave_fraction = 0.3;
  spec.charging = {.period = 12, .window = 4, .energy_per_slice = Energy::mj(2.0)};
  return spec;
}

// --- cache semantics ---------------------------------------------------------

TEST(OutcomeCache, LookupInsertStats) {
  OutcomeCache cache;
  // lookup() is read-only: it runs on a const cache and counts nothing
  // (callers tally their own hits and misses).
  const OutcomeCache& reader = cache;
  const SliceOutcomeKey key{7, 42, 3, 1};
  EXPECT_EQ(reader.lookup(key), nullptr);  // a miss on the empty cache

  std::vector<std::pair<SliceOutcomeKey, SliceOutcome>> batch;
  batch.push_back({key, SliceOutcome{100.0, 5, 2, 99, 0, true}});
  cache.insert_batch(batch);
  const SliceOutcome* hit = reader.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->energy_pj, 100.0);
  EXPECT_EQ(hit->busy_ps, 5);
  EXPECT_EQ(hit->post_state, 99u);
  EXPECT_TRUE(hit->deadline_violated);
  EXPECT_EQ(reader.lookup(key), hit);  // a repeated hit is the same entry
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  // First writer wins: a conflicting re-insert neither replaces the value
  // nor counts as an insertion.
  batch[0].second.energy_pj = -1.0;
  cache.insert_batch(batch);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_DOUBLE_EQ(cache.lookup(key)->energy_pj, 100.0);

  // A later publish copies the map, but outcomes already handed out stay
  // valid (snapshots are retired, never freed).
  batch[0].first.state = 43;
  cache.insert_batch(batch);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_DOUBLE_EQ(hit->energy_pj, 100.0);
  EXPECT_NE(reader.lookup(key), hit);  // the current snapshot's copy
  EXPECT_DOUBLE_EQ(reader.lookup(key)->energy_pj, 100.0);

  // A cold memo is a fresh cache.
  EXPECT_EQ(OutcomeCache{}.lookup(key), nullptr);
}

TEST(OutcomeCache, InternsPostStateBlobsByBytes) {
  OutcomeCache cache;
  // Equal bytes from two recorders share one copy; other bytes get their own.
  const StateBlob* a1 = cache.intern_blob("state-a");
  const StateBlob* a2 = cache.intern_blob(std::string("state-a"));
  const StateBlob* b = cache.intern_blob("state-b");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(**a1, "state-a");
  EXPECT_EQ(**b, "state-b");
  EXPECT_EQ(cache.stats().blobs, 2u);

  // A published outcome carries the interned blob; both outlive a later
  // publish.
  std::vector<std::pair<SliceOutcomeKey, SliceOutcome>> batch;
  batch.push_back({{7, 1, 0, 1}, SliceOutcome{.post_state = 10, .blob = a1}});
  cache.insert_batch(batch);
  const SliceOutcome* hit = cache.lookup({7, 1, 0, 1});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->blob, a1);
  batch[0].first.state = 2;
  cache.insert_batch(batch);
  EXPECT_EQ(**hit->blob, "state-a");
  EXPECT_EQ(cache.intern_blob("state-a"), a1);
}

TEST(OutcomeCache, KeysSeparateOnEveryField) {
  OutcomeCache cache;
  const SliceOutcomeKey key{7, 42, 3, 1, 2, 1};
  std::vector<std::pair<SliceOutcomeKey, SliceOutcome>> batch;
  batch.push_back({key, SliceOutcome{}});
  cache.insert_batch(batch);

  ASSERT_NE(cache.lookup(key), nullptr);
  // Exact buckets: changing any field — machine, state digest, SLO,
  // buffered load, mode or tier — is a different key, never a fuzzy match.
  EXPECT_EQ(cache.lookup({8, 42, 3, 1, 2, 1}), nullptr);
  EXPECT_EQ(cache.lookup({7, 43, 3, 1, 2, 1}), nullptr);
  EXPECT_EQ(cache.lookup({7, 42, 4, 1, 2, 1}), nullptr);
  EXPECT_EQ(cache.lookup({7, 42, 3, 0, 2, 1}), nullptr);
  EXPECT_EQ(cache.lookup({7, 42, 3, 1, 0, 1}), nullptr);
  EXPECT_EQ(cache.lookup({7, 42, 3, 1, 2, 0}), nullptr);
}

// --- the in-memory key hash --------------------------------------------------

std::uint64_t key_hash(const SliceOutcomeKey& k) {
  return static_cast<std::uint64_t>(SliceOutcomeKey::Hash{}(k));
}

TEST(SliceOutcomeKeyHash, EverySingleFieldChangeMovesTheHash) {
  // Every fold step is a bijection, so a key that differs from another in
  // exactly one field never shares its hash — checked over a seeded sweep
  // of base keys, every n_tasks in 0..500 and every mode/tier byte.
  std::mt19937_64 rng{0x5eed};
  for (int trial = 0; trial < 200; ++trial) {
    const SliceOutcomeKey base{rng(), rng(), static_cast<std::int64_t>(rng() >> 1),
                               static_cast<std::uint32_t>(rng() % 501),
                               static_cast<std::uint8_t>(rng()),
                               static_cast<std::uint8_t>(rng())};
    const std::uint64_t h = key_hash(base);
    const auto differs = [&](SliceOutcomeKey k) {
      return !(k == base) && key_hash(k) != h;
    };
    for (int i = 0; i < 16; ++i) {
      SliceOutcomeKey k = base;
      k.reuse_key ^= rng() | 1;
      EXPECT_TRUE(differs(k)) << "reuse_key, trial " << trial;
      k = base;
      k.state ^= rng() | 1;
      EXPECT_TRUE(differs(k)) << "state, trial " << trial;
      k = base;
      k.slo_ps ^= static_cast<std::int64_t>(rng() | 1);
      EXPECT_TRUE(differs(k)) << "slo_ps, trial " << trial;
    }
    for (std::uint32_t n = 0; n <= 500; ++n) {
      SliceOutcomeKey k = base;
      k.n_tasks = n;
      if (n != base.n_tasks) {
        EXPECT_TRUE(differs(k)) << "n_tasks=" << n;
      }
    }
    for (int v = 0; v < 256; ++v) {
      SliceOutcomeKey k = base;
      k.mode = static_cast<std::uint8_t>(v);
      if (k.mode != base.mode) {
        EXPECT_TRUE(differs(k)) << "mode=" << v;
      }
      k = base;
      k.tier = static_cast<std::uint8_t>(v);
      if (k.tier != base.tier) {
        EXPECT_TRUE(differs(k)) << "tier=" << v;
      }
    }
  }
}

TEST(SliceOutcomeKeyHash, NoFullCollisionsOverManyDistinctKeys) {
  // Fleet-shaped keys: a few machines, many states, small SLO, load, mode
  // and tier ranges. 120k distinct keys, no two with the same 64-bit hash.
  std::mt19937_64 rng{20250611};
  std::vector<SliceOutcomeKey> keys;
  while (keys.size() < 120000) {
    keys.push_back({rng() % 8, rng(), static_cast<std::int64_t>(rng() % 4) * 1000000,
                    static_cast<std::uint32_t>(rng() % 64),
                    static_cast<std::uint8_t>(rng() % 3),
                    static_cast<std::uint8_t>(rng() % 4)});
  }
  const auto as_tuple = [](const SliceOutcomeKey& k) {
    return std::tuple{k.reuse_key, k.state, k.slo_ps, k.n_tasks, k.mode, k.tier};
  };
  std::sort(keys.begin(), keys.end(), [&](const auto& a, const auto& b) {
    return as_tuple(a) < as_tuple(b);
  });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  ASSERT_GE(keys.size(), 100000u);

  std::vector<std::uint64_t> hashes;
  hashes.reserve(keys.size());
  for (const SliceOutcomeKey& k : keys) hashes.push_back(key_hash(k));
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

TEST(SliceOutcomeKeyHash, ModeAndTierOnlyKeysAreDistinctEntries) {
  // mode and tier share one packed word with n_tasks: keys that differ only
  // there must still land as separate entries with their own outcomes.
  OutcomeCache cache;
  std::vector<std::pair<SliceOutcomeKey, SliceOutcome>> batch;
  for (std::uint8_t mode = 0; mode < 4; ++mode) {
    for (std::uint8_t tier = 0; tier < 4; ++tier) {
      batch.push_back({{7, 42, 0, 3, mode, tier},
                       SliceOutcome{.post_state = 16u * mode + tier}});
    }
  }
  cache.insert_batch(batch);
  EXPECT_EQ(cache.stats().entries, batch.size());
  for (const auto& [key, outcome] : batch) {
    const SliceOutcome* hit = cache.lookup(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->post_state, outcome.post_state);
  }
}

// --- the digest the key is built on ------------------------------------------

TEST(ProcessorDigest, EqualWhenFreshOrReset_DivergesUnderLoad) {
  const FleetSpec spec = small_fleet(1, 4);
  placement::LutCache luts;
  sys::SystemConfig config = spec.config;
  config.lut_cache = &luts;

  sys::Processor a{config, spec.models[0]};
  sys::Processor b{config, spec.models[0]};
  const std::uint64_t fresh = a.state_digest();
  EXPECT_EQ(fresh, b.state_digest());  // same machine, same boundary state

  (void)a.run_slice(2);
  EXPECT_NE(a.state_digest(), fresh);  // residency/occupancy moved

  a.reset();
  EXPECT_EQ(a.state_digest(), fresh);  // reset() == fresh construction
}

// --- fleet memo counters and warm replay --------------------------------------

TEST(OutcomeMemo, ConcurrentRunsOnOneCacheCountOnlyTheirOwnLookups) {
  // Two fleets of different sizes share one memo from two threads: each
  // result reports its own lookups, untouched by the other run's.
  const FleetSpec a = churn_fleet(48, 24);
  const FleetSpec b = small_fleet(16, 5);
  placement::LutCache luts;
  OutcomeCache memo;
  FleetResult ra;
  FleetResult rb;
  std::thread other{[&] { ra = run_with(a, 2, &luts, &memo); }};
  rb = run_with(b, 2, &luts, &memo);
  other.join();
  EXPECT_EQ(ra.memo_hits + ra.memo_misses, ra.aggregate.executed_slices);
  EXPECT_EQ(rb.memo_hits + rb.memo_misses, rb.aggregate.executed_slices);
  EXPECT_EQ(ra.memo_replayed_devices + ra.memo_exact_devices,
            static_cast<std::uint64_t>(a.devices));
  EXPECT_EQ(rb.memo_replayed_devices + rb.memo_exact_devices,
            static_cast<std::uint64_t>(b.devices));
}

TEST(OutcomeMemo, WarmCacheReplaysEveryDeviceByteIdentically) {
  FleetSpec spec = small_fleet(24, 5);
  // Non-exhausting battery: the steady state of a long-lived fleet
  // (ExhaustedDevicesReplayFromTheMemo covers devices that die).
  spec.battery.capacity = Energy::mj(5000.0);
  // One LUT cache for every run: outcome keys embed the lut_cache pointer
  // (sys::processor_reuse_key), so a per-run cache would cold-start the
  // memo each time. Warm it first so lut_builds (part of the summary) is 0
  // in all compared runs.
  placement::LutCache luts;
  (void)run_with(spec, 1, &luts, nullptr);
  const FleetResult ref = run_with(spec, 1, &luts, nullptr);

  OutcomeCache memo;
  const FleetResult cold = run_with(spec, 1, &luts, &memo);
  EXPECT_EQ(cold.to_jsonl(), ref.to_jsonl());
  EXPECT_GT(cold.memo_misses, 0u);  // the cache started empty

  const FleetResult warm = run_with(spec, 1, &luts, &memo);
  EXPECT_EQ(warm.to_jsonl(), ref.to_jsonl());
  EXPECT_EQ(warm.summary_to_json(), ref.summary_to_json());
  EXPECT_EQ(warm.memo_replayed_devices,
            static_cast<std::uint64_t>(spec.devices));
  EXPECT_EQ(warm.memo_exact_devices, 0u);
  EXPECT_EQ(warm.memo_misses, 0u);

  // Checkpointed segments replay from the same warm memo.
  const FleetSimulator sim{cases::options(1, 4, &luts, &memo)};
  const FleetResult resumed = sim.resume(spec, sim.run_to(spec, 2));
  EXPECT_EQ(resumed.to_jsonl(), ref.to_jsonl());
  EXPECT_EQ(resumed.memo_misses, 0u);
}

TEST(OutcomeMemo, ExhaustedDevicesReplayFromTheMemo) {
  // The battery clamp is applied per device at replay time, so a memoized
  // outcome serves the device it exhausts too: on a fleet most of whose
  // devices exhaust, a warm memo replays every device, exhaustion slices
  // included, with output identical to the memo-off path.
  const FleetSpec spec = churn_fleet(96, 48);
  placement::LutCache luts;
  (void)run_with(spec, 1, &luts, nullptr);  // warm the LUTs (lut_builds = 0)
  const FleetResult ref = run_with(spec, 1, &luts, nullptr);
  std::uint64_t exhausted = 0;
  for (const DeviceResult& d : ref.devices) {
    if (d.exhausted_at_slice >= 0) ++exhausted;
  }
  ASSERT_GT(2 * exhausted, static_cast<std::uint64_t>(spec.devices));

  for (const unsigned threads : {1u, 4u}) {
    OutcomeCache memo;
    const FleetResult cold = run_with(spec, threads, &luts, &memo);
    EXPECT_EQ(cold.to_jsonl(), ref.to_jsonl()) << "threads=" << threads;
    EXPECT_EQ(cold.summary_to_json(), ref.summary_to_json()) << "threads=" << threads;

    const FleetResult warm = run_with(spec, threads, &luts, &memo);
    EXPECT_EQ(warm.to_jsonl(), ref.to_jsonl()) << "threads=" << threads;
    EXPECT_EQ(warm.summary_to_json(), ref.summary_to_json()) << "threads=" << threads;
    EXPECT_EQ(warm.memo_exact_devices, 0u) << "threads=" << threads;
    EXPECT_EQ(warm.memo_misses, 0u) << "threads=" << threads;
    EXPECT_EQ(warm.memo_replayed_devices, static_cast<std::uint64_t>(spec.devices))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace hhpim::fleet
