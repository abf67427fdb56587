// Fleet-simulation CLI: runs N independent simulated edge devices — each a
// sys::Processor with a battery and SoC-driven placement adaptation — on a
// sharded worker pool, and writes per-device JSONL plus fleet-wide
// aggregates. See docs/FLEET.md for the spec, schema and determinism
// guarantees.
//
//   ./fleet_sim [--devices=1000] [--threads=N] [--slices=20] [--shard-size=256]
//               [--models=all|EfficientNet-B0,ResNet-18,...]
//               [--scenarios=mix|paper|name1,name2,...]
//               [--seed=S] [--lut=R]
//               [--capacity-mj=250] [--initial-soc=1.0]
//               [--soc-low=0.3] [--soc-high=0.5] [--no-adapt]
//               [--join-fraction=F] [--leave-fraction=F]   (device churn)
//               [--charge-period=P] [--charge-window=W] [--charge-mj=E]
//               [--envelope=SHAPE] [--envelope-min=M]
//               [--envelope-max=M] [--envelope-seed=S]
//               [--checkpoint-every=N]  (run as resumable N-slice segments)
//               [--snapshot-dir=DIR]    (save/load each segment's snapshot)
//               [--no-device-memo] [--no-results]
//               [--jsonl=PATH|-] [--summary=PATH|-] [--shard-dir=DIR] [--quiet]
//
// SHAPE (the fleet-wide load envelope) is one of low-constant, high-constant,
// periodic-spike, periodic-spike-frequent, high-low-pulsing, random, ramp,
// burst-decay or poisson. trace-replay is refused: no flag supplies its trace.
//
// The same spec at any --threads value produces byte-identical JSONL and
// summary output — CI diffs --threads=1 against --threads=2 as a
// determinism smoke check. With --checkpoint-every=N the fleet runs as
// ceil(slices/N) segments through FleetSnapshot serialization and the output
// is byte-identical to the one-shot run — CI diffs that too.
#include <chrono>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/threads.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"
#include "workload/scenario.hpp"

using namespace hhpim;

namespace {

int run_cli(const Cli& cli) {
  fleet::FleetSpec spec;
  spec.name = "fleet-sim";
  spec.devices = static_cast<int>(cli.get_int("devices", 1000));
  spec.slices = static_cast<int>(cli.get_int("slices", 20));
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed2025));
  spec.battery.capacity = Energy::mj(cli.get_double("capacity-mj", 250.0));
  spec.battery.initial_soc = cli.get_double("initial-soc", 1.0);
  spec.thresholds.low_soc = cli.get_double("soc-low", 0.3);
  spec.thresholds.high_soc = cli.get_double("soc-high", 0.5);
  spec.adapt = !cli.get_bool("no-adapt", false);

  spec.lifecycle.join_fraction = cli.get_double("join-fraction", 0.0);
  spec.lifecycle.leave_fraction = cli.get_double("leave-fraction", 0.0);
  spec.charging.period = static_cast<int>(cli.get_int("charge-period", 0));
  spec.charging.window = static_cast<int>(cli.get_int("charge-window", 0));
  spec.charging.energy_per_slice = Energy::mj(cli.get_double("charge-mj", 0.0));

  const std::string envelope_arg = cli.get("envelope", "");
  if (!envelope_arg.empty()) {
    const auto shape = workload::from_string(envelope_arg);
    if (!shape.has_value()) {
      std::fprintf(stderr, "unknown envelope shape '%s'\n", envelope_arg.c_str());
      return 1;
    }
    if (*shape == workload::Scenario::kTrace) {
      std::fprintf(stderr, "--envelope=trace-replay needs a trace, which fleet_sim "
                           "cannot supply: pick a generated shape\n");
      return 1;
    }
    spec.envelope.enabled = true;
    spec.envelope.shape = *shape;
    spec.envelope.min_multiplier = cli.get_double("envelope-min", 0.5);
    spec.envelope.max_multiplier = cli.get_double("envelope-max", 1.5);
    spec.envelope.seed =
        static_cast<std::uint64_t>(cli.get_int("envelope-seed", 0xd1a2025));
  }

  const auto lut = static_cast<int>(cli.get_int("lut", 96));
  spec.config.lut_t_entries = lut;
  spec.config.lut_k_blocks = lut;

  // Model population ("all" = FleetSpec's default, the full Table IV zoo).
  const std::string models_arg = cli.get("models", "all");
  if (models_arg != "all") {
    for (const std::string& name : split(models_arg, ',')) {
      auto m = nn::zoo::find_model(trim(name));
      if (!m.has_value()) {
        std::fprintf(stderr, "unknown model '%s' (known: %s)\n", name.c_str(),
                     nn::zoo::known_model_names().c_str());
        return 1;
      }
      spec.models.push_back(std::move(*m));
    }
  }

  // Scenario mix.
  const std::string scenarios_arg = cli.get("scenarios", "mix");
  if (scenarios_arg == "paper") {
    const auto s = workload::all_scenarios();
    spec.mix.assign(s.begin(), s.end());
  } else if (scenarios_arg != "mix") {
    for (const std::string& name : split(scenarios_arg, ',')) {
      const auto s = workload::from_string(trim(name));
      if (!s.has_value()) {
        std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
        return 1;
      }
      spec.mix.push_back(*s);
    }
  }  // "mix" = FleetSpec's default dynamic mix

  fleet::FleetOptions opts;
  opts.threads = static_cast<unsigned>(cli.get_count("threads", 0));
  opts.shard_size = static_cast<std::size_t>(cli.get_count("shard-size", 256));
  opts.shard_dir = cli.get("shard-dir", "");
  opts.keep_results = !cli.get_bool("no-results", false);
  opts.memoize_devices = !cli.get_bool("no-device-memo", false);
  placement::LutCache lut_cache;  // private per invocation, deterministic stats
  opts.lut_cache = &lut_cache;
  fleet::OutcomeCache outcome_cache;  // same: private, cold per invocation
  opts.outcome_cache = &outcome_cache;
  const fleet::FleetSimulator sim{opts};

  const std::string jsonl_path = cli.get("jsonl", "");
  if (!jsonl_path.empty() && !opts.keep_results) {
    // Diagnose the flag conflict before the (potentially long) run.
    std::fprintf(stderr, "--jsonl needs per-device results; drop --no-results "
                         "or use --shard-dir\n");
    return 1;
  }

  const int checkpoint_every =
      static_cast<int>(cli.get_int("checkpoint-every", 0));
  const std::string snapshot_dir = cli.get("snapshot-dir", "");
  const bool quiet = cli.get_bool("quiet", false);

  const auto t0 = std::chrono::steady_clock::now();
  fleet::FleetResult result;
  int segments = 1;
  try {
    if (checkpoint_every > 0) {
      // Segmented run: checkpoint at every N-slice boundary, forcing each
      // snapshot through full serialization (bytes, or files under
      // --snapshot-dir) so the round-trip is what actually gets exercised.
      fleet::FleetSnapshot snap;
      bool have = false;
      for (int end = checkpoint_every; end < spec.slices;
           end += checkpoint_every) {
        snap = sim.run_to(spec, end, have ? &snap : nullptr);
        if (!snapshot_dir.empty()) {
          char name[64];
          std::snprintf(name, sizeof name, "/snapshot-%06d.bin", end);
          const std::string path = snapshot_dir + name;
          snap.save(path);
          snap = fleet::FleetSnapshot::load(path, opts.threads);
        } else {
          snap = fleet::FleetSnapshot::from_bytes(snap.to_bytes(), opts.threads);
        }
        have = true;
        ++segments;
      }
      result = have ? sim.resume(spec, snap) : sim.run(spec);
    } else {
      result = sim.run(spec);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet run failed: %s\n", e.what());
    return 1;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (!quiet) {
    const auto& a = result.aggregate;
    std::printf("fleet: %d devices x %d slices, %zu shards of %zu "
                "(%u threads; LUT cache: %llu built, %llu shared)\n",
                spec.devices, spec.slices, result.shard_count, result.shard_size,
                resolve_threads(opts.threads),
                static_cast<unsigned long long>(result.lut_builds),
                static_cast<unsigned long long>(result.lut_shared));
    if (checkpoint_every > 0) {
      std::printf("checkpointing: %d segment(s) of %d slice(s)%s\n", segments,
                  checkpoint_every,
                  snapshot_dir.empty() ? "" : " via snapshot files");
    }
    if (opts.memoize_devices) {
      // Stats only — hit/miss counts vary with worker interleaving, which is
      // why they are printed here and never written into the summary JSON.
      std::printf("device memo: %llu replayed, %llu exact (%llu hits, "
                  "%llu misses; %llu devices replayed whole)\n",
                  static_cast<unsigned long long>(result.memo_replayed_devices),
                  static_cast<unsigned long long>(result.memo_exact_devices),
                  static_cast<unsigned long long>(result.memo_hits),
                  static_cast<unsigned long long>(result.memo_misses),
                  static_cast<unsigned long long>(result.memo_device_replays));
    }
    std::printf("wall: %.3f s (%.1f devices/s)\n\n", wall_s,
                spec.devices > 0 ? static_cast<double>(spec.devices) / wall_s : 0.0);
    std::printf("tasks %llu (dropped %llu)  deadline misses %llu  "
                "exhausted devices %llu/%llu\n",
                static_cast<unsigned long long>(a.tasks),
                static_cast<unsigned long long>(a.tasks_dropped),
                static_cast<unsigned long long>(a.deadline_violations),
                static_cast<unsigned long long>(a.exhausted_devices),
                static_cast<unsigned long long>(a.devices));
    std::printf("adaptation: %llu mode switches, %llu low-power slices "
                "(of %llu executed)\n",
                static_cast<unsigned long long>(a.mode_switches),
                static_cast<unsigned long long>(a.low_power_slices),
                static_cast<unsigned long long>(a.executed_slices));
    std::printf("slice latency (busy/T): p50 %.3f  p95 %.3f  p99 %.3f\n",
                a.busy_frac_quantile(0.50), a.busy_frac_quantile(0.95),
                a.busy_frac_quantile(0.99));
    std::printf("slice energy (mJ):      p50 %.2f  p95 %.2f  p99 %.2f\n",
                a.slice_energy_mj_quantile(0.50), a.slice_energy_mj_quantile(0.95),
                a.slice_energy_mj_quantile(0.99));
    std::printf("device energy (mJ):     mean %.1f  min %.1f  max %.1f\n",
                a.device_energy_mj.mean(), a.device_energy_mj.min(),
                a.device_energy_mj.max());
    std::printf("final SoC:              mean %.3f  min %.3f  max %.3f\n\n",
                a.final_soc.mean(), a.final_soc.min(), a.final_soc.max());
  }

  if (!jsonl_path.empty()) {
    const int rc = write_output(jsonl_path, quiet, "device JSONL",
                                [&](std::ostream& os) { result.write_jsonl(os); });
    if (rc != 0) return rc;
  }
  const std::string summary_path = cli.get("summary", "");
  if (!summary_path.empty()) {
    const int rc =
        write_output(summary_path, quiet, "fleet summary",
                     [&](std::ostream& os) { result.write_summary_json(os); });
    if (rc != 0) return rc;
  }
  if (!opts.shard_dir.empty() && !quiet) {
    std::printf("wrote %zu shard file(s) under %s\n", result.shard_count,
                opts.shard_dir.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Unknown flags and malformed or negative numeric flags (Cli::get_int/
  // get_count) land here.
  try {
    const Cli cli{argc, argv};
    cli.reject_unknown_flags(
        {"devices", "threads", "slices", "shard-size", "models", "scenarios",
         "seed", "lut", "capacity-mj", "initial-soc", "soc-low", "soc-high",
         "no-adapt", "join-fraction", "leave-fraction", "charge-period",
         "charge-window", "charge-mj", "envelope", "envelope-min",
         "envelope-max", "envelope-seed", "checkpoint-every", "snapshot-dir",
         "no-device-memo", "no-results", "jsonl", "summary", "shard-dir",
         "quiet"});
    return run_cli(cli);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
