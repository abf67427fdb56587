// Fleet-throughput perf baseline — produces BENCH_fleet.json.
//
// Self-contained (no google-benchmark): the artifact needs custom fields
// (worker scaling, LUT fan-in economy, devices/s) and must build everywhere
// the fleet does. Regenerate with:
//
//   ./build/bench/bench_fleet --out=BENCH_fleet.json
//
// (CI runs the same with --devices=512 --reps=2 --shard-size=32
// --big-devices=100000 and uploads the JSON per PR next to the committed
// baseline, so the trajectory accumulates.)
//
// Headline comparisons (see docs/PERF.md for how to read them):
//   * fleet/t1 vs fleet/t8 — the same 1,000-device fleet at 1 and 8 worker
//     threads, measured steady-state: the shared LUT cache is warmed once
//     (untimed; `lut_warm_ms` reports the one-off build cost) so the legs
//     measure the slice-execution fast path, not LUT construction.
//     `speedup_t8_vs_t1` is the worker-scaling criterion (≥ 2×, on a host
//     with ≥ 2 cores; `hardware_threads` records what this host offered,
//     and a 1-core container necessarily reports ~1×).
//   * fleet/t1-cold — fresh cache per rep (LUT builds inside the timed
//     region), the pre-PR-5 measurement convention, kept for trajectory
//     continuity.
//   * lut_shared/t1 — a small fleet on a fresh cache per rep: its LUT
//     builds are inside the timed region, amortized over the devices that
//     share them.
//   * fleet/t1-memo vs fleet/t1 — the same warm fleet with the device-level
//     outcome memo (fleet::OutcomeCache) on vs off. The memo is pre-warmed
//     by one untimed pass (`memo_warm_ms`, mirroring the LUT convention), so
//     `memo_speedup_t1` is the steady-state replay economy; `memo_hit_rate`
//     reports the memo leg's hits / (hits + misses).
//   * fleet/t1-1m — `--big-devices` (default 1,000,000) devices through the
//     warm memo at one thread, one rep, results streamed nowhere: the
//     million-device headline (`big_devices_per_s`).
//   * fleet/t4-1m vs fleet/t1-1m — the same big warm-memo fleet at 4 and 1
//     worker threads. `memo_speedup_t4_vs_t1` is the replay path's scaling
//     criterion: a memo hit writes nothing shared, so replay workers must
//     not serialize on one cache line (docs/PERF.md "Contention-free memo
//     hits"). The big fleet, not fleet/t1-memo's: at the default 1,000
//     devices a replay leg takes about a millisecond, which thread start-up
//     noise swamps.
//
// The bench battery is large enough that no device exhausts: exhausted
// devices stop early (fewer slices of work) and must take the exact
// simulation path, so an exhausting fleet would measure a blend of fleet
// sizes rather than slice-execution throughput. Exhaustion-heavy fleets are
// a correctness scenario (tests/test_outcome_memo.cpp), not a throughput
// one.
//
// Fleet outputs are byte-identical across all of these (threads, device
// memo); tests/test_oracle.cpp pins that — only wall-clock moves here.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/serialize.hpp"
#include "fleet/device.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "hhpim/processor.hpp"
#include "nn/model.hpp"
#include "placement/lut_cache.hpp"

using namespace hhpim;

namespace {

fleet::FleetSpec bench_spec(int devices, int slices, int lut) {
  fleet::FleetSpec spec;
  spec.name = "bench-fleet";
  spec.devices = devices;
  spec.slices = slices;
  spec.config.lut_t_entries = lut;
  spec.config.lut_k_blocks = lut;
  // No device exhausts at this capacity (see the header comment): every leg
  // runs every device through all of its slices.
  spec.battery.capacity = Energy::mj(2500.0);
  return spec;
}

struct Measurement {
  double wall_ms = 0.0;
  std::uint64_t lut_builds = 0;
  std::uint64_t lut_shared = 0;
  std::uint64_t tasks = 0;
  std::uint64_t memo_replayed = 0;
  std::uint64_t memo_exact = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
};

/// Best-of-`reps` wall clock for one fleet configuration. With `warm_cache`
/// null, a fresh private cache per rep keeps reps identical (first-rep
/// builds are part of the measurement, exactly like a cold CLI invocation);
/// with a pre-warmed cache the legs measure steady-state throughput.
/// `device_memo` is the outcome memo to run on (nullptr = memoization off,
/// the exact per-device path).
Measurement run_fleet(const fleet::FleetSpec& spec, unsigned threads,
                      std::size_t shard_size, int reps,
                      placement::LutCache* warm_cache = nullptr,
                      fleet::OutcomeCache* device_memo = nullptr) {
  Measurement best;
  for (int rep = 0; rep < reps; ++rep) {
    placement::LutCache fresh;
    fleet::FleetOptions opts;
    opts.threads = threads;
    opts.lut_cache = warm_cache != nullptr ? warm_cache : &fresh;
    opts.shard_size = shard_size;
    opts.keep_results = false;  // throughput, not result plumbing
    opts.memoize_devices = device_memo != nullptr;
    opts.outcome_cache = device_memo;
    const fleet::FleetSimulator sim{opts};

    const auto t0 = std::chrono::steady_clock::now();
    const fleet::FleetResult r = sim.run(spec);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (rep == 0 || ms < best.wall_ms) {
      best.wall_ms = ms;
      best.lut_builds = r.lut_builds;
      best.lut_shared = r.lut_shared;
      best.tasks = r.aggregate.tasks;
      best.memo_replayed = r.memo_replayed_devices;
      best.memo_exact = r.memo_exact_devices;
      best.memo_hits = r.memo_hits;
      best.memo_misses = r.memo_misses;
    }
  }
  return best;
}

void write_result(JsonWriter& w, const char* name, int devices, unsigned threads,
                  const Measurement& m) {
  w.begin_object();
  w.field("name", name);
  w.field("devices", devices);
  w.field("threads", static_cast<std::uint64_t>(threads));
  w.field("wall_ms", m.wall_ms);
  w.field("devices_per_s",
          m.wall_ms > 0.0 ? static_cast<double>(devices) / (m.wall_ms * 1e-3) : 0.0);
  w.field("per_device_ms", devices > 0 ? m.wall_ms / devices : 0.0);
  w.field("lut_builds", m.lut_builds);
  w.field("lut_shared", m.lut_shared);
  w.field("tasks", m.tasks);
  w.field("memo_replayed", m.memo_replayed);
  w.field("memo_exact", m.memo_exact);
  w.field("memo_hits", m.memo_hits);
  w.field("memo_misses", m.memo_misses);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli{argc, argv};
  const int devices = static_cast<int>(cli.get_int("devices", 1000));
  const int slices = static_cast<int>(cli.get_int("slices", 10));
  const int lut = static_cast<int>(cli.get_int("lut", 64));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const std::size_t shard = static_cast<std::size_t>(cli.get_int("shard-size", 64));
  // The cold small-fleet leg (lut_shared/t1).
  const int nocache_devices =
      static_cast<int>(cli.get_int("nocache-devices", 24));
  const int big_devices =
      static_cast<int>(cli.get_int("big-devices", 1000000));
  const std::string out_path = cli.get("out", "BENCH_fleet.json");

  const fleet::FleetSpec spec = bench_spec(devices, slices, lut);
  const fleet::FleetSpec small = bench_spec(nocache_devices, slices, lut);

  std::printf("bench_fleet: %d devices x %d slices (lut %d, shard %zu, "
              "best of %d)\n",
              devices, slices, lut, shard, reps);

  // Warm the shared cache once: one Processor per distinct model builds its
  // LUT into `warm`, so `lut_warm_ms` is exactly the one-off build cost the
  // steady-state legs amortize away.
  placement::LutCache warm;
  const auto w0 = std::chrono::steady_clock::now();
  {
    const sys::SystemConfig cfg = fleet::Device::device_config(spec, &warm);
    for (const nn::Model& model : spec.resolved_models()) {
      const sys::Processor proc{cfg, model};
    }
  }
  const double lut_warm_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - w0)
                                 .count();

  const Measurement t1 = run_fleet(spec, 1, shard, reps, &warm);
  std::printf("  fleet/t1        : %8.1f ms  (%.0f devices/s, warm cache)\n",
              t1.wall_ms, devices / (t1.wall_ms * 1e-3));
  const Measurement t8 = run_fleet(spec, 8, shard, reps, &warm);
  std::printf("  fleet/t8        : %8.1f ms  (%.0f devices/s, %.2fx vs t1)\n",
              t8.wall_ms, devices / (t8.wall_ms * 1e-3), t1.wall_ms / t8.wall_ms);
  const Measurement t1_cold = run_fleet(spec, 1, shard, reps);
  std::printf("  fleet/t1-cold   : %8.1f ms  (builds in timed region)\n",
              t1_cold.wall_ms);

  // Warm the outcome memo like the LUT: one untimed memo-on pass records the
  // fleet's slice outcomes (`memo_warm_ms` is that one-off cost), so the
  // memo legs measure steady-state replay throughput.
  fleet::OutcomeCache warm_memo;
  const auto m0 = std::chrono::steady_clock::now();
  run_fleet(spec, 1, shard, 1, &warm, &warm_memo);
  const double memo_warm_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - m0)
                                  .count();

  const Measurement t1_memo = run_fleet(spec, 1, shard, reps, &warm, &warm_memo);
  std::printf("  fleet/t1-memo   : %8.1f ms  (%llu replayed / %llu exact, "
              "%.2fx vs t1)\n",
              t1_memo.wall_ms,
              static_cast<unsigned long long>(t1_memo.memo_replayed),
              static_cast<unsigned long long>(t1_memo.memo_exact),
              t1.wall_ms / t1_memo.wall_ms);

  // The million-device leg: same per-device spec, so the warm memo carries
  // over (fresh device ids/seeds only grow the key set where new states
  // appear). One rep — at this size the first pass is already steady-state.
  const fleet::FleetSpec big = bench_spec(big_devices, slices, lut);
  const Measurement t1_big =
      run_fleet(big, 1, std::size_t{256}, 1, &warm, &warm_memo);
  std::printf("  fleet/t1-1m     : %8.1f ms  (%d devices, %.0f devices/s)\n",
              t1_big.wall_ms, big_devices,
              big_devices / (t1_big.wall_ms * 1e-3));
  const Measurement t4_big =
      run_fleet(big, 4, std::size_t{256}, 1, &warm, &warm_memo);
  std::printf("  fleet/t4-1m     : %8.1f ms  (%.2fx vs t1-1m)\n", t4_big.wall_ms,
              t1_big.wall_ms / t4_big.wall_ms);

  const Measurement shared = run_fleet(small, 1, shard, reps);
  std::printf("  lut_shared/t1   : %8.1f ms  (%d devices, %llu builds)\n",
              shared.wall_ms, nocache_devices,
              static_cast<unsigned long long>(shared.lut_builds));

  const unsigned hw = std::thread::hardware_concurrency();
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::string json;
  JsonWriter w{json};
  w.begin_object();
  w.field("bench", "fleet");
  w.key("host");
  w.begin_object();
  w.field("hardware_threads", static_cast<std::uint64_t>(hw == 0 ? 1 : hw));
  w.end_object();
  w.key("config");
  w.begin_object();
  w.field("devices", devices);
  w.field("slices", slices);
  w.field("lut", lut);
  w.field("shard_size", static_cast<std::uint64_t>(shard));
  w.field("reps", reps);
  w.field("nocache_devices", nocache_devices);
  w.field("big_devices", big_devices);
  w.field("battery_capacity_mj", spec.battery.capacity.as_mj());
  w.end_object();
  w.key("results");
  w.begin_array();
  write_result(w, "fleet/t1", devices, 1, t1);
  write_result(w, "fleet/t8", devices, 8, t8);
  write_result(w, "fleet/t1-cold", devices, 1, t1_cold);
  write_result(w, "fleet/t1-memo", devices, 1, t1_memo);
  write_result(w, "fleet/t1-1m", big_devices, 1, t1_big);
  write_result(w, "fleet/t4-1m", big_devices, 4, t4_big);
  write_result(w, "lut_shared/t1", nocache_devices, 1, shared);
  w.end_array();
  w.field("lut_warm_ms", lut_warm_ms);
  w.field("memo_warm_ms", memo_warm_ms);
  w.field("speedup_t8_vs_t1", t1.wall_ms / t8.wall_ms);
  w.field("cold_vs_warm_t1", t1_cold.wall_ms / t1.wall_ms);
  w.field("memo_speedup_t1", t1.wall_ms / t1_memo.wall_ms);
  w.field("memo_speedup_t4_vs_t1", t1_big.wall_ms / t4_big.wall_ms);
  w.field("memo_hit_rate",
          t1_memo.memo_hits + t1_memo.memo_misses > 0
              ? static_cast<double>(t1_memo.memo_hits) /
                    static_cast<double>(t1_memo.memo_hits + t1_memo.memo_misses)
              : 0.0);
  w.field("big_devices_per_s",
          t1_big.wall_ms > 0.0
              ? static_cast<double>(big_devices) / (t1_big.wall_ms * 1e-3)
              : 0.0);
  w.end_object();
  out << json << '\n';
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
