// The differential oracle: output bytes must not depend on how the
// simulator runs. For each random case (fleet_cases.hpp) the reference is
// one thread, memo off, one shot, and every strategy must reproduce its
// JSONL and summary bytes: 2 and 4 threads (with a cold memo and shard
// files), whole-device replay in one shard (its summary against a memo-off
// run of one shard), a warm memo, one memo shared by two concurrent runs,
// the case's checkpoint cuts (through bytes with warm caches, through files
// with fresh caches per segment), and per-device Device::run on fresh
// processors running the scalar task loop, merged in shard order. Every memo run must count exactly its own work,
// and every live processor blob of every cut must pass the state-walk
// check. A failing case is shrunk (one feature dropped at a time, then
// devices and slices halved) and printed as C++. The test reports how many
// devices the cases replayed whole, and fails when none did.
//
// The grid half does the same for exp::Runner, whose runs replay slices
// through the same fleet::OutcomeCache: for each random grid
// (grid_cases.hpp) the reference is a fresh processor's run_scenario per
// run, and run_all at 1, 2 and 4 threads and execute() without a pool, on
// shared and private LUT caches, keep_slices on and off, must reproduce
// every RunResult field bit for bit. A failing grid is shrunk (axis entries
// dropped, then slices halved) and printed as C++.
//
// HHPIM_ORACLE_CASES and HHPIM_ORACLE_SEED set the case count and seed of
// both halves.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "fleet/outcome_cache.hpp"
#include "exp/runner.hpp"
#include "fleet/simulator.hpp"
#include "fleet_cases.hpp"
#include "grid_cases.hpp"
#include "placement/lut_cache.hpp"
#include "state_bytes.hpp"

namespace hhpim::fleet {
namespace {

namespace fs = std::filesystem;
using cases::FleetCase;
using Mismatch = std::runtime_error;

constexpr std::uint64_t kDefaultCases = 100;
constexpr std::uint64_t kDefaultSeed = 0x0ac1e2026ULL;

/// The bytes around the first one where the texts differ.
std::string first_difference(const std::string& got, const std::string& want) {
  const auto at = static_cast<std::size_t>(
      std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first - got.begin());
  const std::size_t from = at < 60 ? 0 : at - 60;
  return "at byte " + std::to_string(at) + ": got '" + got.substr(from, 120) + "' want '" +
         want.substr(from, 120) + "'";
}

/// The processor state walk on every live blob of a snapshot: loading
/// consumes the whole blob and re-saving is the identity. Machine states
/// (reuse key, bytes) that several live devices stand at are counted.
struct StateWalk {
  placement::LutCache luts;
  std::set<std::pair<std::uint64_t, std::string>> states;
  int blobs = 0;
  int shared_states = 0;

  void check(const FleetSpec& spec, const FleetSnapshot& snap) {
    const std::vector<nn::Model> models = spec.resolved_models();
    const DeviceExpander expander{spec};
    DeviceSpec ds;
    for (std::size_t d = 0; d < snap.devices.size(); ++d) {
      const DeviceProgress& p = snap.devices[d];
      if (p.proc_blob == nullptr) continue;
      expander.at(d, ds);
      const sys::SystemConfig cfg = Device::device_config(spec, ds, &luts);
      sys::Processor fresh{cfg, models[ds.model_index]};
      ByteReader r{*p.proc_blob};
      fresh.load_state(r);
      ++blobs;
      const bool inserted =
          states.emplace(sys::processor_reuse_key(cfg, models[ds.model_index]), *p.proc_blob)
              .second;
      shared_states += inserted ? 0 : 1;
      if (!r.at_end() || state_bytes(fresh) != *p.proc_blob) {
        throw Mismatch("state walk at device " + std::to_string(d) + ": load or re-save");
      }
    }
  }
};

/// Runs every strategy on `c`: "" when all reproduce the reference, else
/// "<strategy>: <what differed>". Adds the devices its runs replayed whole
/// to `device_replays`.
std::string run_oracle(const FleetCase& c, StateWalk& walk, std::uint64_t& device_replays,
                       const fs::path& tmp) {
  const FleetSpec& spec = c.spec;
  std::string strategy = "reference (1 thread, memo off, one shot)";
  try {
    placement::LutCache ref_luts;
    const FleetResult ref =
        FleetSimulator{cases::options(1, c.shard_size, &ref_luts, nullptr)}.run(spec);
    const std::string want_jsonl = ref.to_jsonl();
    const std::string want_summary = ref.summary_to_json();
    // Compares on the calling thread only, so it also tallies the replays.
    const auto same = [&](const FleetResult& got) {
      device_replays += got.memo_device_replays;
      if (const std::string j = got.to_jsonl(); j != want_jsonl) {
        throw Mismatch("JSONL " + first_difference(j, want_jsonl));
      }
      if (const std::string s = got.summary_to_json(); s != want_summary) {
        throw Mismatch("summary " + first_difference(s, want_summary));
      }
    };
    // One call's memo counters: its lookups and its slices replayed with
    // whole devices are the slices it ran, its replayed + exact devices the
    // ones it advanced; all zero, memo off.
    const auto counters = [](const FleetResult& r, bool memo, std::uint64_t slices,
                             std::uint64_t devices) {
      if (r.memo_hits + r.memo_misses + r.memo_device_replay_slices != (memo ? slices : 0) ||
          r.memo_replayed_devices + r.memo_exact_devices != (memo ? devices : 0) ||
          r.memo_device_replays > r.memo_replayed_devices ||
          (r.memo_device_replays == 0) != (r.memo_device_replay_slices == 0)) {
        throw Mismatch("memo counters disagree with the " + std::to_string(slices) +
                       " slices and " + std::to_string(devices) + " devices the call ran");
      }
    };
    const auto run = [&](unsigned threads, placement::LutCache* luts, OutcomeCache* memo,
                         const std::string& shard_dir = {}) {
      FleetOptions o = cases::options(threads, c.shard_size, luts, memo);
      o.shard_dir = shard_dir;
      FleetResult r = FleetSimulator{o}.run(spec);
      counters(r, memo != nullptr, r.aggregate.executed_slices,
               static_cast<std::uint64_t>(spec.devices));
      return r;
    };
    // A run on a LUT cache another run warmed counts fewer builds; every
    // other byte must match.
    const auto with_ref_luts = [&](FleetResult r) {
      r.lut_builds = ref.lut_builds;
      r.lut_shared = ref.lut_shared;
      return r;
    };
    counters(ref, false, 0, 0);

    strategy = "2 threads";
    placement::LutCache t2_luts;
    same(run(2, &t2_luts, nullptr));

    strategy = "4 threads, cold memo, shard files";
    {
      placement::LutCache luts;
      OutcomeCache memo;
      const fs::path dir = tmp / "shards";
      fs::create_directories(dir);
      const FleetResult r = run(4, &luts, &memo, dir.string());
      same(r);
      std::string files;
      for (std::size_t s = 0; s < r.shard_count; ++s) {
        char name[64];
        std::snprintf(name, sizeof name, "shard-%05zu.jsonl", s);
        std::ifstream in(dir / name, std::ios::binary);
        files.append(std::istreambuf_iterator<char>{in}, {});
      }
      fs::remove_all(dir);
      if (files != want_jsonl) throw Mismatch("shard files " + first_difference(files, want_jsonl));
    }

    strategy = "whole-device replay (1 thread, one shard, against its own memo-off summary)";
    {
      // One aggregate for the fleet: replayed devices interleave with run
      // ones in a single device-major Welford order. A summary counts its
      // shards, so the memo-off run of the same shape is its reference.
      const auto one_shard = [&](placement::LutCache& luts, OutcomeCache* memo) {
        return FleetSimulator{cases::options(1, std::max<std::size_t>(spec.devices, 1), &luts,
                                             memo)}
            .run(spec);
      };
      placement::LutCache off_luts;
      placement::LutCache on_luts;
      OutcomeCache memo;
      const FleetResult off = one_shard(off_luts, nullptr);
      const FleetResult on = one_shard(on_luts, &memo);
      counters(on, true, on.aggregate.executed_slices, static_cast<std::uint64_t>(spec.devices));
      device_replays += on.memo_device_replays;
      if (const std::string j = on.to_jsonl(); j != want_jsonl) {
        throw Mismatch("JSONL " + first_difference(j, want_jsonl));
      }
      if (const std::string got = on.summary_to_json(), want = off.summary_to_json();
          got != want) {
        throw Mismatch("summary " + first_difference(got, want));
      }
    }

    strategy = "warm memo (one OutcomeCache, run twice)";
    {
      placement::LutCache luts;
      OutcomeCache memo;
      same(run(1, &luts, &memo));
      const FleetResult warm = run(1, &luts, &memo);
      if (warm.lut_builds != 0 || warm.memo_misses != 0) {
        throw Mismatch("the warm run built LUTs or missed the memo");
      }
      same(with_ref_luts(warm));
    }

    strategy = "one memo shared by two concurrent runs";
    {
      placement::LutCache luts;
      OutcomeCache memo;
      // The future joins its thread even when this thread's run throws.
      std::future<FleetResult> other =
          std::async(std::launch::async, [&] { return run(2, &luts, &memo); });
      const FleetResult mine = run(2, &luts, &memo);
      same(with_ref_luts(other.get()));
      same(with_ref_luts(mine));
    }

    // The cuts as segments, with caches kept across segments or fresh per
    // segment as a new process would have them.
    const auto segmented = [&](bool fresh, bool memo, bool files) {
      placement::LutCache warm_luts;
      OutcomeCache warm_memo;
      const auto simulator = [&](placement::LutCache& luts, OutcomeCache& outcomes) {
        OutcomeCache* const m = memo ? (fresh ? &outcomes : &warm_memo) : nullptr;
        return FleetSimulator{
            cases::options(c.seg_threads, c.shard_size, fresh ? &luts : &warm_luts, m)};
      };
      FleetSnapshot snap;
      bool started = false;
      for (const int cut : c.cuts) {
        placement::LutCache luts;
        OutcomeCache outcomes;
        if (cut > 0) {
          snap = simulator(luts, outcomes).run_to(spec, cut, started ? &snap : nullptr);
        } else {  // an initial snapshot: nothing executed yet
          snap.spec_digest = spec.content_digest();
          snap.slice_bins = SliceHistograms{spec.histograms};
          snap.devices.resize(static_cast<std::size_t>(spec.devices));
        }
        started = true;
        if (files) {
          const std::string path = (tmp / "segment.snap").string();
          snap.save(path);
          snap = FleetSnapshot::load(path);
        } else {
          snap = FleetSnapshot::from_bytes(snap.to_bytes());
        }
        walk.check(spec, snap);
      }
      placement::LutCache luts;
      OutcomeCache outcomes;
      const FleetResult r = simulator(luts, outcomes).resume(spec, snap);
      std::uint64_t before = 0;
      std::uint64_t live = 0;
      for (const DeviceProgress& p : snap.devices) {
        before += static_cast<std::uint64_t>(p.result.slices_executed);
        live += p.done ? 0 : 1;
      }
      counters(r, memo, r.aggregate.executed_slices - before, live);
      return r;
    };
    std::string cuts;
    for (const int cut : c.cuts) cuts += " " + std::to_string(cut);
    strategy = "cuts {" + cuts + " } through bytes, warm caches";
    same(segmented(false, true, false));
    strategy = "cuts {" + cuts + " } through files, fresh caches per segment";
    same(segmented(true, c.fresh_memo, true));

    strategy = "per-device Device::run on fresh scalar processors";
    FleetResult per = ref;
    std::vector<DeviceResult> devices;
    per.aggregate = FleetAggregate{spec.histograms};
    const std::vector<nn::Model> models = spec.resolved_models();
    const std::vector<double> env = spec.envelope_multipliers();
    const DeviceExpander expander{spec};
    DeviceSpec ds;
    std::vector<int> arrivals;
    for (std::size_t begin = 0; begin < expander.size(); begin += c.shard_size) {
      FleetAggregate shard{spec.histograms};
      for (std::size_t i = begin; i < std::min(expander.size(), begin + c.shard_size); ++i) {
        expander.at(i, ds);
        // The arrival cursor against the materialized trace: generate,
        // rotate left by the phase, scale by the envelope's global slice.
        device_loads_into(ds, env, arrivals);
        const std::vector<int> trace = workload::generate(ds.scenario, ds.cfg);
        for (std::size_t k = 0; k < trace.size(); ++k) {
          const double raw = trace[(static_cast<std::size_t>(ds.phase) + k) % trace.size()];
          const double m = env.empty() ? 1.0 : env[static_cast<std::size_t>(ds.join_slice) + k];
          if (arrivals.size() != trace.size() || arrivals[k] != static_cast<int>(raw * m + 0.5)) {
            throw Mismatch("device " + std::to_string(i) + "'s arrival " + std::to_string(k) +
                           " differs from its materialized trace");
          }
        }
        sys::Processor proc{Device::device_config(spec, ds, &ref_luts), models[ds.model_index]};
        sys::testing::ScalarTasks::enable(proc);
        devices.push_back(Device{spec, ds, models[ds.model_index], proc}.run(&shard));
      }
      per.aggregate.merge(shard);
    }
    per.devices = DeviceResults{devices};
    same(per);
  } catch (const std::exception& e) {
    return strategy + ": " + e.what();
  }
  return "";
}

/// Each drops one feature of a spec and says whether the spec had it: SLO,
/// host, envelope, charging, churn, extra firmwares, second model.
using Drop = bool (*)(FleetSpec&);
constexpr Drop kDrops[] = {
    [](FleetSpec& s) {
      const bool overrides = !std::exchange(s.slo_overrides, {}).empty();
      return std::exchange(s.latency_slo, Time::zero()) > Time::zero() || overrides;
    },
    [](FleetSpec& s) {
      bool had = std::exchange(s.config.host.enabled, false);
      for (sys::SystemConfig& fw : s.firmware) had = std::exchange(fw.host.enabled, false) || had;
      return had;
    },
    [](FleetSpec& s) { return std::exchange(s.envelope, LoadEnvelope{}).enabled; },
    [](FleetSpec& s) { return std::exchange(s.charging, ChargingSpec{}).period > 0; },
    [](FleetSpec& s) {
      const LifecycleSpec had = std::exchange(s.lifecycle, LifecycleSpec{});
      const bool overrides = !std::exchange(s.lifecycle_overrides, {}).empty();
      return had.join_fraction > 0.0 || had.leave_fraction > 0.0 || overrides;
    },
    [](FleetSpec& s) { return std::exchange(s.firmware, {}).size() > 1; },  // [0] is the config
    [](FleetSpec& s) {
      const bool had = s.models.size() > 1;
      if (had) s.models.pop_back();
      return had;
    },
};

/// Shrinks failing `c` in place while it still fails; returns its failure.
std::string shrink(FleetCase& c, std::string failure, const fs::path& tmp) {
  const auto still_fails = [&](FleetCase candidate) {
    cases::normalize(candidate);
    StateWalk walk;
    std::uint64_t device_replays = 0;
    std::string f = run_oracle(candidate, walk, device_replays, tmp);
    if (f.empty()) return false;
    c = std::move(candidate);
    failure = std::move(f);
    return true;
  };
  for (const Drop drop : kDrops) {
    FleetCase candidate = c;
    if (drop(candidate.spec)) (void)still_fails(std::move(candidate));
  }
  for (bool halved = true; halved;) {
    FleetCase fewer_devices = c;
    fewer_devices.spec.devices /= 2;
    halved = c.spec.devices > 0 && still_fails(std::move(fewer_devices));
    FleetCase fewer_slices = c;
    fewer_slices.spec.slices /= 2;
    halved = (c.spec.slices > 1 && still_fails(std::move(fewer_slices))) || halved;
  }
  return failure;
}

std::uint64_t env_or(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 0) : def;
}

TEST(Oracle, EveryExecutionStrategyReproducesTheReference) {
  const std::uint64_t n_cases = env_or("HHPIM_ORACLE_CASES", kDefaultCases);
  const std::uint64_t seed = env_or("HHPIM_ORACLE_SEED", kDefaultSeed);
  const fs::path tmp = fs::temp_directory_path() / ("hhpim-oracle-" + std::to_string(::getpid()));
  fs::create_directories(tmp);
  SplitMix64 rng{seed};
  StateWalk walk;
  std::uint64_t device_replays = 0;
  bool failed = false;
  for (std::uint64_t i = 0; i < n_cases && !failed; ++i) {
    FleetCase c = cases::random_fleet_case(rng);
    const std::string failure = run_oracle(c, walk, device_replays, tmp);
    failed = !failure.empty();
    if (!failed) continue;
    const std::string original = cases::print_case(c);
    const std::string shrunk = shrink(c, failure, tmp);
    ADD_FAILURE() << "case " << i << " of HHPIM_ORACLE_SEED=" << seed << " fails: " << failure
                  << "\n" << original << "shrunk, it fails: " << shrunk << "\n"
                  << cases::print_case(c);
  }
  fs::remove_all(tmp);
  std::printf("[ oracle   ] %llu devices replayed whole over %llu cases\n",
              static_cast<unsigned long long>(device_replays),
              static_cast<unsigned long long>(n_cases));
  if (!failed && n_cases >= kDefaultCases) {  // the walk's and replay's properties were exercised
    EXPECT_GT(walk.blobs, 0);
    EXPECT_GT(walk.shared_states, 0);
    EXPECT_GT(device_replays, 0u);
  }
}

// --- the grid half ------------------------------------------------------------

/// Runs the exp::Runner strategies on `spec`'s runs — run_all at 1, 2 and 4
/// threads and execute() without a pool — on a LUT cache shared across the
/// case's strategies or one of their own, with keep_slices on or off: the
/// four strategies take the four (LUT, keep_slices) pairs, rotated by
/// `rotation`, so four consecutive cases run every combination. "" when
/// every RunResult equals a fresh processor's run_scenario and every
/// strategy counts the same memo work per run, else "<strategy>: <what
/// differed>".
std::string run_grid_oracle(const exp::ExperimentSpec& spec, std::uint64_t rotation) {
  std::string strategy = "reference (fresh processors, private LUT builds)";
  try {
    const std::vector<exp::RunSpec> runs = spec.expand();
    std::vector<exp::RunResult> want;
    for (const exp::RunSpec& r : runs) want.push_back(exp::cases::direct_result(r, nullptr));
    std::vector<std::uint64_t> exact;  // per run, the first strategy's exact slices
    const auto same = [&](std::size_t i, const exp::RunResult& got, bool keep) {
      if (const std::string d = exp::cases::difference(got, want[i], keep); !d.empty()) {
        throw Mismatch("run " + std::to_string(i) + ": " + d);
      }
      if (exact.size() == i) exact.push_back(got.memo_exact);
      if (exact[i] != got.memo_exact) throw Mismatch("run " + std::to_string(i) + "'s memo counts");
    };
    placement::LutCache shared;
    for (const unsigned threads : {1u, 2u, 4u, 0u}) {  // 0: execute() without a pool
      const std::uint64_t pair = (rotation + threads) % 4;
      const bool share = (pair & 1) != 0;
      const bool keep = (pair & 2) != 0;
      strategy = (threads == 0 ? std::string{"execute without a pool"}
                               : "run_all at " + std::to_string(threads) + " threads") +
                 ", " + (share ? "shared" : "private") + " LUTs, keep_slices " +
                 (keep ? "on" : "off");
      placement::LutCache own;
      placement::LutCache* const luts = share ? &shared : &own;
      if (threads == 0) {
        for (std::size_t i = 0; i < runs.size(); ++i) {
          same(i, exp::Runner::execute(runs[i], keep, luts), keep);
        }
        continue;
      }
      const exp::ResultSet rs =
          exp::Runner{{.threads = threads, .keep_slices = keep, .lut_cache = luts}}.run_all(runs);
      if (rs.size() != runs.size()) throw Mismatch("result count");
      for (std::size_t i = 0; i < runs.size(); ++i) same(i, rs.runs()[i], keep);
    }
  } catch (const std::exception& e) {
    return strategy + ": " + e.what();
  }
  return "";
}

/// Shrinks failing `spec` in place while it still fails (one axis entry
/// dropped at a time, then each scenario's slices halved); returns its
/// failure.
std::string shrink_grid(exp::ExperimentSpec& spec, std::uint64_t rotation, std::string failure) {
  const auto still_fails = [&](exp::ExperimentSpec candidate) {
    std::string f = run_grid_oracle(candidate, rotation);
    if (f.empty()) return false;
    spec = std::move(candidate);
    failure = std::move(f);
    return true;
  };
  const auto drop_each = [&](auto axis) {
    for (std::size_t i = (spec.*axis).size(); i-- > 0 && (spec.*axis).size() > 1;) {
      exp::ExperimentSpec candidate = spec;
      (candidate.*axis).erase((candidate.*axis).begin() + static_cast<std::ptrdiff_t>(i));
      (void)still_fails(std::move(candidate));
    }
  };
  drop_each(&exp::ExperimentSpec::archs);
  drop_each(&exp::ExperimentSpec::models);
  drop_each(&exp::ExperimentSpec::scenarios);
  drop_each(&exp::ExperimentSpec::variants);
  for (bool halved = true; halved;) {
    halved = false;
    for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
      exp::ExperimentSpec candidate = spec;
      exp::ScenarioSpec& s = candidate.scenarios[i];
      if (s.is_fixed ? s.explicit_loads.empty() : s.cfg.slices <= 1) continue;
      if (s.is_fixed) {
        s.explicit_loads.resize(s.explicit_loads.size() / 2);
      } else {
        s.cfg.slices /= 2;
      }
      halved = still_fails(std::move(candidate)) || halved;
    }
  }
  return failure;
}

TEST(Oracle, EveryGridStrategyReproducesFreshProcessors) {
  const std::uint64_t n_cases = env_or("HHPIM_ORACLE_CASES", kDefaultCases);
  const std::uint64_t seed = env_or("HHPIM_ORACLE_SEED", kDefaultSeed);
  SplitMix64 rng{seed};
  bool failed = false;
  for (std::uint64_t i = 0; i < n_cases && !failed; ++i) {
    exp::ExperimentSpec spec = exp::cases::random_grid(rng);
    const std::string failure = run_grid_oracle(spec, i);
    failed = !failure.empty();
    if (!failed) continue;
    const std::string original = exp::cases::print_grid(spec);
    const std::string shrunk = shrink_grid(spec, i, failure);
    ADD_FAILURE() << "grid case " << i << " of HHPIM_ORACLE_SEED=" << seed << " fails: "
                  << failure << "\n" << original << "shrunk, it fails: " << shrunk << "\n"
                  << exp::cases::print_grid(spec);
  }
}

}  // namespace
}  // namespace hhpim::fleet
