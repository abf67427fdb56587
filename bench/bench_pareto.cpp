// Pareto-frontier perf baseline — produces BENCH_pareto.json.
//
// Self-contained (no google-benchmark), same harness idiom as
// bench_fleet.cpp. Regenerate with:
//
//   ./build/bench/bench_pareto --out=BENCH_pareto.json
//
// (CI runs the same with --devices=256 --reps=2 --resolutions=32,64 and
// uploads the JSON per PR next to the committed baseline.)
//
// What it pins down:
//   * lut_build/<model>@r<N> — cold private LUT construction per paper model
//     at several resolutions, plus a read of every entry's frontier (which
//     the LUT builds on first read, placement/lut.cpp): `wall_ms` and
//     `builds_per_s` are the frontier-augmented build cost, `anchor_ms` the
//     construction alone, which is what a fleet or grid run without an SLO
//     pays. The pre-frontier trajectory lives in BENCH_fleet.json's
//     lut_warm_ms. `frontier_points` / `points_per_entry` record how much
//     surface each build tabulates on top of the legacy single answer.
//   * fleet/no-slo vs fleet/slo — the same warm-cache fleet with and without
//     a fleet-wide latency SLO. The SLO path swaps the dynamic/MRAM toggle
//     for per-slice frontier-tier selection; `slo_overhead_t1` is its
//     steady-state cost ratio (expected ~1.0: tier selection is O(1) and the
//     tier allocations are resolved once per device).
//   * fleet/slo-memo — the SLO fleet through a pre-warmed device-level
//     outcome memo: tiers ride in the memo's SliceKey, so replays must stay
//     as hot as the no-SLO memo path (`slo_memo_speedup`).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/serialize.hpp"
#include "common/strings.hpp"
#include "fleet/device.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "placement/lut.hpp"
#include "placement/lut_cache.hpp"

using namespace hhpim;

namespace {

struct BuildStats {
  double wall_ms = 0.0;    ///< construction plus every entry's frontier
  double anchor_ms = 0.0;  ///< construction alone (the anchors)
  std::size_t feasible_entries = 0;
  std::size_t frontier_points = 0;
  std::size_t max_points = 0;
};

/// Cold LUT build with every frontier: private Processor construction is
/// dominated by AllocationLut::build (the anchors, what a cache miss costs a
/// fleet or grid run), and reading each entry's frontier then builds them
/// all.
BuildStats bench_build(const nn::Model& model, int resolution, int reps) {
  sys::SystemConfig cfg;
  cfg.lut_t_entries = resolution;
  cfg.lut_k_blocks = resolution;
  BuildStats best;
  for (int rep = 0; rep < reps; ++rep) {
    using Clock = std::chrono::steady_clock;
    const auto ms_since = [](Clock::time_point t0) {
      return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    };
    const auto t0 = Clock::now();
    const sys::Processor proc{cfg, model};
    const double anchor_ms = ms_since(t0);
    const placement::AllocationLut& lut = *proc.lut();
    std::size_t points = 0;
    std::size_t max_points = 0;
    std::size_t feasible = 0;
    for (const placement::LutEntry& e : lut.entries()) {
      const std::size_t n = lut.frontier(e).size();
      feasible += e.feasible ? 1 : 0;
      points += n;
      max_points = std::max(max_points, n);
    }
    const double ms = ms_since(t0);
    if (rep == 0 || ms < best.wall_ms) best.wall_ms = ms;
    if (rep == 0 || anchor_ms < best.anchor_ms) best.anchor_ms = anchor_ms;
    best.feasible_entries = feasible;
    best.frontier_points = points;
    best.max_points = max_points;
  }
  return best;
}

fleet::FleetSpec bench_spec(int devices, int slices, int lut) {
  fleet::FleetSpec spec;
  spec.name = "bench-pareto";
  spec.devices = devices;
  spec.slices = slices;
  spec.config.lut_t_entries = lut;
  spec.config.lut_k_blocks = lut;
  spec.battery.capacity = Energy::mj(2500.0);  // no device exhausts
  return spec;
}

double run_fleet_ms(const fleet::FleetSpec& spec, int reps,
                    placement::LutCache* warm_cache,
                    fleet::OutcomeCache* device_memo = nullptr) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    fleet::FleetOptions opts;
    opts.threads = 1;
    opts.lut_cache = warm_cache;
    opts.keep_results = false;
    opts.memoize_devices = device_memo != nullptr;
    opts.outcome_cache = device_memo;
    const fleet::FleetSimulator sim{opts};
    const auto t0 = std::chrono::steady_clock::now();
    (void)sim.run(spec);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli{argc, argv};
  const int devices = static_cast<int>(cli.get_int("devices", 512));
  const int slices = static_cast<int>(cli.get_int("slices", 8));
  const int lut = static_cast<int>(cli.get_int("lut", 64));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const double slo_frac = cli.get_double("slo-frac", 0.6);
  const std::string out_path = cli.get("out", "BENCH_pareto.json");

  std::vector<int> resolutions;
  for (const std::string& s : split(cli.get("resolutions", "32,64,128"), ',')) {
    resolutions.push_back(std::stoi(trim(s)));
  }

  std::printf("bench_pareto: %d devices x %d slices (lut %d, best of %d)\n",
              devices, slices, lut, reps);

  const std::vector<nn::Model> models = nn::zoo::paper_models();

  struct BuildRow {
    std::string name;
    int resolution;
    BuildStats stats;
  };
  std::vector<BuildRow> builds;
  for (const nn::Model& m : models) {
    for (const int r : resolutions) {
      BuildRow row{m.name() + "@r" + std::to_string(r), r, bench_build(m, r, reps)};
      std::printf("  lut_build/%-24s: %8.2f ms  (anchors %.2f ms; %zu frontier "
                  "points, %.1f/entry)\n",
                  row.name.c_str(), row.stats.wall_ms, row.stats.anchor_ms,
                  row.stats.frontier_points,
                  row.stats.feasible_entries > 0
                      ? static_cast<double>(row.stats.frontier_points) /
                            static_cast<double>(row.stats.feasible_entries)
                      : 0.0);
      builds.push_back(std::move(row));
    }
  }

  // Fleet legs share one warm cache (same convention as bench_fleet: the
  // legs measure slice execution, not LUT construction).
  const fleet::FleetSpec base = bench_spec(devices, slices, lut);
  fleet::FleetSpec slo_spec = base;
  {
    const sys::SystemConfig cfg = fleet::Device::device_config(base, nullptr);
    const sys::Processor probe{cfg, models.front()};
    slo_spec.latency_slo = Time::ps(static_cast<std::int64_t>(
        static_cast<double>(probe.slice_length().as_ps()) * slo_frac));
  }
  placement::LutCache warm;
  {
    const sys::SystemConfig cfg = fleet::Device::device_config(base, &warm);
    for (const nn::Model& m : base.resolved_models()) {
      const sys::Processor proc{cfg, m};
    }
  }

  const double no_slo_ms = run_fleet_ms(base, reps, &warm);
  std::printf("  fleet/no-slo  : %8.1f ms  (%.0f devices/s)\n", no_slo_ms,
              devices / (no_slo_ms * 1e-3));
  const double slo_ms = run_fleet_ms(slo_spec, reps, &warm);
  std::printf("  fleet/slo     : %8.1f ms  (%.2fx vs no-slo)\n", slo_ms,
              slo_ms / no_slo_ms);

  fleet::OutcomeCache warm_memo;
  run_fleet_ms(slo_spec, 1, &warm, &warm_memo);  // untimed warm pass
  const double slo_memo_ms = run_fleet_ms(slo_spec, reps, &warm, &warm_memo);
  std::printf("  fleet/slo-memo: %8.1f ms  (%.2fx vs slo exact)\n", slo_memo_ms,
              slo_ms / slo_memo_ms);

  const unsigned hw = std::thread::hardware_concurrency();
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::string json;
  JsonWriter w{json};
  w.begin_object();
  w.field("bench", "pareto");
  w.key("host");
  w.begin_object();
  w.field("hardware_threads", static_cast<std::uint64_t>(hw == 0 ? 1 : hw));
  w.end_object();
  w.key("config");
  w.begin_object();
  w.field("devices", devices);
  w.field("slices", slices);
  w.field("lut", lut);
  w.field("reps", reps);
  w.field("slo_frac", slo_frac);
  w.field("slo_ps", slo_spec.latency_slo.as_ps());
  w.end_object();
  w.key("results");
  w.begin_array();
  for (const BuildRow& row : builds) {
    w.begin_object();
    w.field("name", ("lut_build/" + row.name).c_str());
    w.field("resolution", row.resolution);
    w.field("wall_ms", row.stats.wall_ms);
    w.field("builds_per_s",
            row.stats.wall_ms > 0.0 ? 1e3 / row.stats.wall_ms : 0.0);
    w.field("anchor_ms", row.stats.anchor_ms);
    w.field("feasible_entries",
            static_cast<std::uint64_t>(row.stats.feasible_entries));
    w.field("frontier_points",
            static_cast<std::uint64_t>(row.stats.frontier_points));
    w.field("max_points_per_entry",
            static_cast<std::uint64_t>(row.stats.max_points));
    w.field("points_per_entry",
            row.stats.feasible_entries > 0
                ? static_cast<double>(row.stats.frontier_points) /
                      static_cast<double>(row.stats.feasible_entries)
                : 0.0);
    w.end_object();
  }
  const auto fleet_row = [&w, devices](const char* name, double ms) {
    w.begin_object();
    w.field("name", name);
    w.field("devices", devices);
    w.field("wall_ms", ms);
    w.field("devices_per_s",
            ms > 0.0 ? static_cast<double>(devices) / (ms * 1e-3) : 0.0);
    w.end_object();
  };
  fleet_row("fleet/no-slo", no_slo_ms);
  fleet_row("fleet/slo", slo_ms);
  fleet_row("fleet/slo-memo", slo_memo_ms);
  w.end_array();
  w.field("slo_overhead_t1", no_slo_ms > 0.0 ? slo_ms / no_slo_ms : 0.0);
  w.field("slo_memo_speedup", slo_memo_ms > 0.0 ? slo_ms / slo_memo_ms : 0.0);
  w.end_object();
  out << json << '\n';
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
