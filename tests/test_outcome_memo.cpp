// Outcome memoization suite: the OutcomeCache semantics (states named by
// machine and bytes, exact buckets, first-writer-wins, pointer stability and
// bounded memory across row growth, stored ledger posts), the saved
// processor state it names states by and the one restore path both engines
// take back to it, and what a warm memo
// must do on top of the differential oracle's byte identity
// (test_oracle.cpp): count exactly its own lookups, and replay every
// device of a warm fleet, exhaustion slices included.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/serialize.hpp"
#include "energy/ledger.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "fleet_cases.hpp"
#include "hhpim/processor.hpp"
#include "hhpim/processor_pool.hpp"
#include "mem/nvsim_lite.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"
#include "state_bytes.hpp"

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

TEST(OutcomeCache, InternRecordFindStats) {
  OutcomeCache cache;
  // A state is named by its machine and its bytes: equal bytes of one
  // machine are one State, other bytes or another machine another.
  const State& a = cache.intern(7, "state-a");
  EXPECT_EQ(&cache.intern(7, std::string("state-a")), &a);
  EXPECT_NE(&cache.intern(8, "state-a"), &a);
  EXPECT_NE(&cache.intern(7, "state-b"), &a);
  EXPECT_EQ(*a.blob(), "state-a");
  EXPECT_EQ(a.reuse_key(), 7u);
  EXPECT_EQ(cache.stats().states, 3u);

  // find() is read-only: it runs on a const State and counts nothing
  // (callers tally their own hits and misses).
  const SliceKey key{3, 1, 0, 0};
  EXPECT_EQ(a.find(key), nullptr);
  const SliceOutcome& o =
      cache.record(a, key, SliceOutcome{100.0, 5, 2, 0, true, nullptr}, "state-c");
  EXPECT_EQ(a.find(key), &o);
  EXPECT_EQ(o.posts, nullptr);  // recorded without posts
  EXPECT_DOUBLE_EQ(o.energy_pj, 100.0);
  EXPECT_EQ(o.busy_ps, 5);
  EXPECT_TRUE(o.deadline_violated);
  // The outcome points at its next state, interned under a's machine.
  EXPECT_EQ(o.next, &cache.intern(7, "state-c"));
  EXPECT_EQ(cache.stats().states, 4u);
  EXPECT_EQ(cache.stats().outcomes, 1u);

  // First writer wins: a conflicting record neither replaces the outcome
  // nor interns its post-state.
  const SliceOutcome& again =
      cache.record(a, key, SliceOutcome{.energy_pj = -1.0}, "state-d");
  EXPECT_EQ(&again, &o);
  EXPECT_DOUBLE_EQ(a.find(key)->energy_pj, 100.0);
  EXPECT_EQ(cache.stats().states, 4u);
  EXPECT_EQ(cache.stats().outcomes, 1u);

  // A full row regrows, but outcomes already handed out stay valid
  // (superseded rows are kept), and what the cache keeps stays under twice
  // its live slots.
  for (std::uint32_t n = 10; n < 50; ++n) {
    (void)cache.record(a, SliceKey{3, n, 0, 0}, SliceOutcome{.busy_ps = n}, "state-b");
  }
  EXPECT_DOUBLE_EQ(o.energy_pj, 100.0);
  EXPECT_EQ(o.next, &cache.intern(7, "state-c"));
  EXPECT_DOUBLE_EQ(a.find(key)->energy_pj, 100.0);
  for (std::uint32_t n = 10; n < 50; ++n) {
    ASSERT_NE(a.find(SliceKey{3, n, 0, 0}), nullptr);
    EXPECT_EQ(a.find(SliceKey{3, n, 0, 0})->busy_ps, n);
  }
  const OutcomeCache::Stats st = cache.stats();
  EXPECT_EQ(st.outcomes, 41u);
  EXPECT_GE(st.slots, st.outcomes);
  EXPECT_GT(st.slots_kept, st.slots);  // the row did regrow
  EXPECT_LE(st.slots_kept, 2 * st.slots);

  // A cold memo is a fresh cache.
  EXPECT_EQ(OutcomeCache{}.intern(7, "state-a").find(key), nullptr);
}

TEST(OutcomeCache, StoredPostsReplayTheirSliceAcrossRowGrowth) {
  // Thirteen outcomes from one state, five of them past the index's last
  // load row (they chain in one bucket), so the row doubles from 8 to 16
  // slots: every outcome run_exact recorded with posts still yields them,
  // and EnergyLedger::apply of them gives a fresh processor's slice cells
  // bit for bit. The one recorded without posts has none.
  placement::LutCache luts;
  sys::SystemConfig config = cases::base_config();
  config.lut_cache = &luts;
  const nn::Model& model = cases::zoo()[0];
  sys::Processor proc{config, model};
  const std::string fresh = state_bytes(proc);
  OutcomeCache cache;
  const State& s = cache.intern(sys::processor_reuse_key(config, model), fresh);
  const std::uint32_t loads[] = {0, 1, 2, 3, 5, 8, 13, 21, 31, 32, 33, 40};
  ByteWriter save;
  energy::PostLog captured;
  for (const std::uint32_t n : loads) {
    proc.restore(fresh);
    (void)cache.run_exact(s, SliceKey{0, n, 0, 0}, proc, save, &captured);
  }
  proc.restore(fresh);
  EXPECT_EQ(cache.run_exact(s, SliceKey{0, 45, 0, 0}, proc, save).posts, nullptr);
  const OutcomeCache::Stats st = cache.stats();
  EXPECT_EQ(st.outcomes, std::size(loads) + 1);
  EXPECT_EQ(st.slots, 16u);
  EXPECT_EQ(st.slots_kept, 24u);  // the first row is kept for its readers

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::uint32_t n : loads) {
    SCOPED_TRACE(n);
    const SliceOutcome* o = s.find(SliceKey{0, n, 0, 0});
    ASSERT_NE(o, nullptr);
    ASSERT_NE(o->posts, nullptr);
    sys::Processor ref{config, model};  // its ledger holds the one slice's posts
    EXPECT_EQ(bits(o->energy_pj), bits(ref.run_slice(static_cast<int>(n)).energy.as_pj()));
    const energy::EnergyLedger& ledger = ref.ledger();
    std::vector<double> cells(ledger.cell_count(), 0.0);
    energy::EnergyLedger::apply(cells, *o->posts);
    constexpr auto kActivities = static_cast<std::size_t>(energy::Activity::kCount);
    for (std::size_t c = 0; c < ledger.component_count(); ++c) {
      for (std::size_t a = 0; a < kActivities; ++a) {
        EXPECT_EQ(bits(cells[c * kActivities + a]),
                  bits(ledger.component_total_by_index(c, static_cast<energy::Activity>(a))
                           .as_pj()))
            << ledger.component_name(c) << " activity " << a;
      }
    }
  }
}

TEST(OutcomeCache, KeysSeparateOnEveryField) {
  OutcomeCache cache;
  const State& s = cache.intern(7, "state");
  // mode and tier each take every value on their own: all 16 keys that
  // differ only there are separate entries with their own outcomes.
  for (std::uint8_t mode = 0; mode < 4; ++mode) {
    for (std::uint8_t tier = 0; tier < 4; ++tier) {
      (void)cache.record(s, SliceKey{3, 1, mode, tier},
                         SliceOutcome{.busy_ps = 16 * mode + tier}, "next");
    }
  }
  EXPECT_EQ(cache.stats().outcomes, 16u);
  for (std::uint8_t mode = 0; mode < 4; ++mode) {
    for (std::uint8_t tier = 0; tier < 4; ++tier) {
      const SliceOutcome* hit = s.find(SliceKey{3, 1, mode, tier});
      ASSERT_NE(hit, nullptr);
      EXPECT_EQ(hit->busy_ps, 16 * mode + tier);
    }
  }
  // Exact buckets: another SLO or load is another key, never a fuzzy match,
  // and another state's row holds none of these outcomes.
  EXPECT_EQ(s.find(SliceKey{4, 1, 2, 1}), nullptr);
  EXPECT_EQ(s.find(SliceKey{3, 0, 2, 1}), nullptr);
  EXPECT_EQ(s.find(SliceKey{3, 1, 4, 1}), nullptr);
  EXPECT_EQ(cache.intern(7, "other").find(SliceKey{3, 1, 2, 1}), nullptr);
  EXPECT_EQ(cache.intern(8, "state").find(SliceKey{3, 1, 2, 1}), nullptr);
}

/// base_config() (HH-PIM) with NVSim-lite voltages at one Vdd_HP point,
/// Vdd_LP fixed at 0.8 V.
sys::SystemConfig at_vdd_hp(double vdd) {
  sys::SystemConfig c = cases::base_config();
  c.power = mem::NvsimLite{}.make_spec(vdd, 0.8);
  return c;
}

TEST(OutcomeCache, MachinesThatSaveEqualBytesNeverShareAnOutcome) {
  // One arch and model at two Vdd_HP points: the fresh processors save the
  // same bytes, but their slices cost different energy. The memo names a
  // state by (machine, bytes), so neither machine replays the other's.
  // (Two Vdd_LP points would not do: HH-PIM's fresh placement follows its
  // LUT, which moves with Vdd_LP, so those fresh bytes already differ.)
  placement::LutCache luts;
  const nn::Model& model = cases::zoo()[0];
  sys::SystemConfig hi = at_vdd_hp(1.2);
  sys::SystemConfig lo = at_vdd_hp(1.0);
  hi.lut_cache = &luts;
  lo.lut_cache = &luts;
  sys::Processor p_hi{hi, model};
  sys::Processor p_lo{lo, model};
  const std::string fresh = state_bytes(p_hi);
  ASSERT_EQ(state_bytes(p_lo), fresh);
  const std::uint64_t k_hi = sys::processor_reuse_key(hi, model);
  const std::uint64_t k_lo = sys::processor_reuse_key(lo, model);
  ASSERT_NE(k_hi, k_lo);
  ASSERT_NE(p_hi.run_slice(3).energy.as_pj(), p_lo.run_slice(3).energy.as_pj());

  OutcomeCache cache;
  const State& s_hi = cache.intern(k_hi, fresh);
  const State& s_lo = cache.intern(k_lo, fresh);
  ASSERT_NE(&s_hi, &s_lo);
  (void)cache.record(s_hi, SliceKey{0, 3, 0, 0}, SliceOutcome{}, state_bytes(p_hi));
  EXPECT_EQ(s_lo.find(SliceKey{0, 3, 0, 0}), nullptr);

  // Through the fleet: a memo warmed by one machine's fleet leaves the
  // other's output exactly its memo-off reference, and replays none of it.
  FleetSpec spec_hi = small_fleet(12, 5);
  spec_hi.config = at_vdd_hp(1.2);
  FleetSpec spec_lo = spec_hi;
  spec_lo.config = at_vdd_hp(1.0);
  (void)run_with(spec_lo, 1, &luts, nullptr);  // warm the LUTs (lut_builds = 0)
  const FleetResult ref = run_with(spec_lo, 1, &luts, nullptr);
  OutcomeCache memo;
  (void)run_with(spec_hi, 2, &luts, &memo);
  (void)run_with(spec_hi, 2, &luts, &memo);
  const FleetResult got = run_with(spec_lo, 2, &luts, &memo);
  EXPECT_EQ(got.to_jsonl(), ref.to_jsonl());
  EXPECT_EQ(got.summary_to_json(), ref.summary_to_json());
  EXPECT_GT(got.memo_exact_devices, 0u);
  EXPECT_NE(ref.to_jsonl(), run_with(spec_hi, 1, &luts, nullptr).to_jsonl());
}

// --- the saved state the memo names states by ---------------------------------

TEST(ProcessorState, EqualWhenFreshOrReset_DivergesUnderLoad) {
  const FleetSpec spec = small_fleet(1, 4);
  placement::LutCache luts;
  sys::SystemConfig config = spec.config;
  config.lut_cache = &luts;

  sys::Processor a{config, spec.models[0]};
  sys::Processor b{config, spec.models[0]};
  const std::string fresh = state_bytes(a);
  EXPECT_EQ(fresh, state_bytes(b));  // same machine, same boundary state

  (void)a.run_slice(2);
  EXPECT_NE(state_bytes(a), fresh);  // residency/occupancy moved

  a.reset();
  EXPECT_EQ(state_bytes(a), fresh);  // reset() == fresh construction
}

TEST(ProcessorState, RestoreTakesWholeBlobsOfItsOwnMachineOnly) {
  placement::LutCache luts;
  sys::SystemConfig config = cases::base_config();
  config.lut_cache = &luts;
  const nn::Model& model = cases::zoo()[0];
  sys::Processor a{config, model};
  (void)a.run_slice(4);
  const std::string saved = state_bytes(a);
  sys::Processor b{config, model};
  (void)b.run_slice(9);
  b.restore(saved);  // resets first: b's own history is gone
  EXPECT_EQ(state_bytes(b), saved);
  EXPECT_EQ(b.run_slice(3).energy.as_pj(), a.run_slice(3).energy.as_pj());

  // Bytes past the state are refused, saying how many.
  try {
    b.restore(saved + "xy");
    ADD_FAILURE() << "a blob with trailing bytes was restored";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("2 trailing bytes"), std::string::npos) << e.what();
  }
  // So is another machine's shape: Baseline-PIM has no LP cluster.
  sys::SystemConfig baseline = config;
  baseline.arch = sys::ArchConfig::baseline();
  EXPECT_THROW(b.restore(state_bytes(sys::Processor{baseline, model})), std::runtime_error);
  // A refused restore leaves nothing behind that a good one keeps.
  b.restore(saved);
  EXPECT_EQ(state_bytes(b), saved);
}

TEST(ProcessorState, PoolCheckoutForARestoreSkipsOnlyTheReset) {
  // A pooled processor checked out for a restore comes back as its last
  // lease left it (the restore resets it once); any other checkout resets.
  placement::LutCache luts;
  sys::SystemConfig config = cases::base_config();
  config.lut_cache = &luts;
  const nn::Model& model = cases::zoo()[0];
  sys::Processor reference{config, model};
  const std::string fresh = state_bytes(reference);
  (void)reference.run_slice(5);
  const std::string target = state_bytes(reference);
  sys::ProcessorPool pool;
  std::string used;
  {
    const sys::ProcessorPool::Lease lease = pool.checkout(config, model);
    (void)lease.get().run_slice(9);
    used = state_bytes(lease.get());
  }
  ASSERT_NE(used, fresh);
  {
    const sys::ProcessorPool::Lease lease =
        pool.checkout(sys::processor_reuse_key(config, model), config, model,
                      sys::ProcessorPool::Reuse::kAsLeft);
    EXPECT_EQ(state_bytes(lease.get()), used);
    lease.get().restore(target);
    EXPECT_EQ(state_bytes(lease.get()), target);
    EXPECT_EQ(lease.get().run_slice(3).energy.as_pj(), reference.run_slice(3).energy.as_pj());
  }
  const sys::ProcessorPool::Lease lease = pool.checkout(config, model);
  EXPECT_EQ(state_bytes(lease.get()), fresh);
}

TEST(ProcessorState, FleetRefusesTrailingBytesNamingTheDevice) {
  // A checkpointed device's processor blob with a byte too many: resuming
  // refuses it through Processor::restore, memo on or off, and the message
  // names the device.
  const FleetSpec spec = small_fleet(6, 6);
  placement::LutCache luts;
  FleetSnapshot snap = FleetSimulator{cases::options(1, 4, &luts, nullptr)}.run_to(spec, 3);
  std::size_t live = snap.devices.size();
  for (std::size_t d = 0; d < snap.devices.size() && live == snap.devices.size(); ++d) {
    if (snap.devices[d].proc_blob != nullptr) live = d;
  }
  ASSERT_LT(live, snap.devices.size());
  snap.devices[live].proc_blob =
      std::make_shared<const std::string>(*snap.devices[live].proc_blob + "x");
  const std::string id = std::to_string(snap.devices[live].result.id);
  for (const bool memo : {false, true}) {
    OutcomeCache outcomes;
    try {
      (void)FleetSimulator{cases::options(1, 4, &luts, memo ? &outcomes : nullptr)}.resume(
          spec, snap);
      ADD_FAILURE() << "a blob with trailing bytes was resumed, memo " << memo;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("fleet: device " + id + ": "), std::string::npos) << what;
      EXPECT_NE(what.find("1 trailing bytes"), std::string::npos) << what;
    }
  }
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
  EXPECT_EQ(ra.memo_hits + ra.memo_misses + ra.memo_device_replay_slices,
            ra.aggregate.executed_slices);
  EXPECT_EQ(rb.memo_hits + rb.memo_misses + rb.memo_device_replay_slices,
            rb.aggregate.executed_slices);
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
  // One LUT cache for every run: a memo state's machine embeds the
  // lut_cache pointer (sys::processor_reuse_key), so a per-run cache would cold-start the
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

TEST(OutcomeMemo, CheckpointedFleetKeepsUnderTwiceItsLiveSlots) {
  // The memo's memory on a fleet that records across 60 shards in each of
  // three segments: outcomes land in their state's row as they are recorded,
  // and the superseded rows kept for lock-free readers stay under the live
  // rows' size, however many shards recorded.
  const FleetSpec spec = churn_fleet(120, 24);
  placement::LutCache luts;
  (void)run_with(spec, 1, &luts, nullptr);  // warm the LUTs (lut_builds = 0)
  const FleetResult ref = run_with(spec, 1, &luts, nullptr);
  OutcomeCache memo;
  const FleetSimulator sim{cases::options(2, 2, &luts, &memo)};
  FleetSnapshot snap = sim.run_to(spec, 8);
  snap = sim.run_to(spec, 16, &snap);
  const FleetResult got = sim.resume(spec, snap);
  EXPECT_EQ(got.to_jsonl(), ref.to_jsonl());
  EXPECT_GE(got.shard_count, 50u);

  const OutcomeCache::Stats st = memo.stats();
  EXPECT_GT(st.outcomes, 0u);
  EXPECT_LE(st.outcomes, st.slots);
  EXPECT_GT(st.slots_kept, st.slots);  // some row did regrow
  EXPECT_LE(st.slots_kept, 2 * st.slots);
}

}  // namespace
}  // namespace hhpim::fleet
