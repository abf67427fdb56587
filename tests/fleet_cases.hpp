// Random cases for the differential oracle (test_oracle.cpp) and the
// batched-kernel check (test_batched.cpp), the scalar-task seam both use as
// their reference, and the small fleet and run the focused suites share.
//
// A FleetCase is a FleetSpec drawn over every axis the simulator has, plus
// the execution knobs that must not change a byte (shard size, checkpoint
// cuts). All draws come from one SplitMix64 stream, so a seed names a case
// on every host; print_case() writes one as C++ for a regression test.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fleet/simulator.hpp"
#include "fleet/spec.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"

namespace hhpim::sys::testing {

/// Runs every task of `p` through the scalar per-task loop, the reference
/// the batched kernel must match bit for bit.
struct ScalarTasks {
  static void enable(Processor& p) { p.scalar_tasks_ = true; }
};

}  // namespace hhpim::sys::testing

namespace hhpim::fleet::cases {

/// Every generator shape (a fleet mix cannot replay a trace).
inline constexpr workload::Scenario kShapes[] = {
    workload::Scenario::kLowConstant,   workload::Scenario::kHighConstant,
    workload::Scenario::kPeriodicSpike, workload::Scenario::kPeriodicSpikeFrequent,
    workload::Scenario::kPulsing,       workload::Scenario::kRandom,
    workload::Scenario::kRamp,          workload::Scenario::kBurstDecay,
    workload::Scenario::kPoisson};

/// The models a case draws from.
inline const std::vector<nn::Model>& zoo() {
  static const std::vector<nn::Model> models = {nn::zoo::efficientnet_b0(),
                                                nn::zoo::mobilenet_v2()};
  return models;
}

inline std::uint64_t below(SplitMix64& rng, std::uint64_t n) { return rng.next() % n; }
inline bool one_in(SplitMix64& rng, std::uint64_t n) { return below(rng, n) == 0; }

/// The LUT r16 HH-PIM config every case starts from.
inline sys::SystemConfig base_config() {
  sys::SystemConfig c;
  c.lut_t_entries = 16;
  c.lut_k_blocks = 16;
  return c;
}

/// base_config() with, at random, a second LUT knob generation (a distinct
/// LUT key), the RISC-V host and — unless `hhpim_only` — a static paper
/// architecture.
inline sys::SystemConfig random_firmware(SplitMix64& rng, bool hhpim_only) {
  sys::SystemConfig c = base_config();
  if (one_in(rng, 2)) c.lut_t_entries = 24;
  c.host.enabled = one_in(rng, 3);
  if (!hhpim_only && one_in(rng, 2)) c.arch = sys::ArchConfig::paper_table1()[below(rng, 3)];
  return c;
}

/// A fleet that runs in milliseconds: one model at LUT r16.
inline FleetSpec small_fleet(int devices = 24, int slices = 6) {
  FleetSpec spec;
  spec.devices = devices;
  spec.slices = slices;
  spec.models = {zoo()[0]};
  spec.config = base_config();
  return spec;
}

/// Options running on `luts`, memoizing on `memo` (null = memo off).
inline FleetOptions options(unsigned threads, std::size_t shard_size, placement::LutCache* luts,
                            OutcomeCache* memo) {
  return {.threads = threads, .shard_size = shard_size, .lut_cache = luts,
          .memoize_devices = memo != nullptr, .outcome_cache = memo};
}

inline FleetResult run_with(const FleetSpec& spec, unsigned threads, placement::LutCache* luts,
                            OutcomeCache* memo) {
  return FleetSimulator{options(threads, 4, luts, memo)}.run(spec);
}

struct FleetCase {
  FleetSpec spec;
  std::size_t shard_size = 1;
  /// Ascending global slices in [0, spec.slices] at which the segmented runs
  /// checkpoint; 0 resumes a hand-built initial snapshot.
  std::vector<int> cuts;
  unsigned seg_threads = 1;  ///< workers of the segmented runs
  bool fresh_memo = true;    ///< the fresh-cache segmented run memoizes
};

/// Keeps `c` valid after its devices or slices shrank: drops overrides that
/// no longer fit and clamps the cuts.
inline void normalize(FleetCase& c) {
  FleetSpec& s = c.spec;
  const auto n = static_cast<std::uint32_t>(s.devices);
  std::erase_if(s.lifecycle_overrides, [&](const LifecycleOverride& o) {
    const int leave = o.leave_slice < 0 ? s.slices : o.leave_slice;
    return o.id >= n || o.join_slice >= leave || leave > s.slices;
  });
  std::erase_if(s.slo_overrides, [&](const SloOverride& o) { return o.id >= n; });
  for (int& cut : c.cuts) cut = std::min(cut, s.slices);
  c.cuts.erase(std::unique(c.cuts.begin(), c.cuts.end()), c.cuts.end());
}

inline FleetCase random_fleet_case(SplitMix64& rng) {
  FleetCase c;
  FleetSpec& s = c.spec;
  s.name = "oracle";
  // One case in three repeats run inputs: more devices over fewer slices,
  // so fewer (phase, lifecycle window) classes, and whole-device replay
  // serves a key's third device on.
  const bool repeats = one_in(rng, 3);
  s.devices = static_cast<int>(repeats ? 16 + below(rng, 33) : below(rng, 13));
  s.slices = 1 + static_cast<int>(below(rng, repeats ? 6 : 16));
  const auto any_device = [&] { return static_cast<std::uint32_t>(below(rng, s.devices)); };
  const auto any_slice = [&] { return static_cast<int>(below(rng, s.slices)); };
  s.seed = rng.next();
  s.models = {zoo()[0]};
  if (one_in(rng, 2)) s.models.push_back(zoo()[1]);
  if (!one_in(rng, 5)) {  // else the default mix
    for (std::uint64_t i = 1 + below(rng, 4); i > 0; --i) s.mix.push_back(kShapes[below(rng, 9)]);
  }
  s.config = base_config();
  s.config.host.enabled = one_in(rng, 4);
  const bool slo = one_in(rng, 3);  // SLOs need every firmware on HH-PIM
  for (std::uint64_t i = below(rng, 3); i > 0; --i) {  // only the first extra may be static
    if (s.firmware.empty()) s.firmware = {s.config};
    s.firmware.push_back(random_firmware(rng, slo || s.firmware.size() > 1));
  }
  s.adapt = !one_in(rng, 4);
  for (const sys::SystemConfig& fw : s.firmware) {
    s.adapt = s.adapt && fw.arch.kind == sys::ArchKind::kHhpim;
  }
  s.battery.capacity = one_in(rng, 4) ? Energy::mj(5000.0)  // never runs out
                                      : Energy::mj(5.0 + static_cast<double>(below(rng, 40)));
  if (one_in(rng, 2)) {
    s.charging.period = 1 + static_cast<int>(below(rng, 6));
    s.charging.window = static_cast<int>(below(rng, s.charging.period + 1));
    s.charging.energy_per_slice = Energy::mj(static_cast<double>(below(rng, 8)));
  }
  if (one_in(rng, 2)) {
    s.lifecycle.join_fraction = 0.25 * static_cast<double>(below(rng, 4));
    s.lifecycle.leave_fraction = 0.25 * static_cast<double>(below(rng, 4));
    for (std::uint64_t i = below(rng, 3); i > 0 && s.devices > 0; --i) {
      const int join = any_slice();
      const int leave =
          one_in(rng, 2) ? -1 : join + 1 + static_cast<int>(below(rng, s.slices - join));
      s.lifecycle_overrides.push_back(
          {.id = any_device(), .join_slice = join, .leave_slice = leave});
    }
  }
  if (one_in(rng, 2)) {
    s.envelope.enabled = true;
    s.envelope.shape = kShapes[below(rng, 9)];
    s.envelope.seed = rng.next();
    s.envelope.min_multiplier = 0.25 * static_cast<double>(below(rng, 5));
    s.envelope.max_multiplier =
        s.envelope.min_multiplier + 0.25 * static_cast<double>(below(rng, 5));
  }
  if (slo) {
    // Fractions of the slice length T, so some SLOs are feasible and some
    // are not; the last override of a draw opts its device out.
    const std::int64_t t = sys::derived_slice_length(s.config, s.models[0]).as_ps();
    const auto some_slo = [&] {
      return Time::ps(t * (3 + static_cast<std::int64_t>(below(rng, 8))) / 10);
    };
    s.latency_slo = some_slo();
    for (std::uint64_t i = below(rng, 3); i > 0 && s.devices > 0; --i) {
      s.slo_overrides.push_back(
          {.id = any_device(), .latency_slo = i == 1 ? Time::zero() : some_slo()});
    }
  }
  c.shard_size = 1 + below(rng, 8);
  for (std::uint64_t i = 1 + below(rng, 3); i > 0; --i) {
    c.cuts.push_back(static_cast<int>(below(rng, s.slices + 1)));
  }
  std::sort(c.cuts.begin(), c.cuts.end());
  c.seg_threads = 1u << below(rng, 3);  // 1, 2 or 4
  c.fresh_memo = one_in(rng, 2);
  normalize(c);
  return c;
}

/// Assignments to `lhs` for the fields where firmware `c` differs from `base`.
inline void print_config(std::ostream& os, const std::string& lhs, const sys::SystemConfig& c,
                         const sys::SystemConfig& base) {
  constexpr const char* kArchs[] = {"baseline", "hetero", "hybrid", "hhpim"};  // by ArchKind
  if (c.arch.kind != base.arch.kind) {
    os << lhs << ".arch = sys::ArchConfig::" << kArchs[static_cast<int>(c.arch.kind)] << "();\n";
  }
  const auto field = [&](const char* name, auto value, auto base_value) {
    if (value != base_value) os << lhs << "." << name << " = " << value << ";\n";
  };
  field("lut_t_entries", c.lut_t_entries, base.lut_t_entries);
  field("lut_k_blocks", c.lut_k_blocks, base.lut_k_blocks);
  field("host.enabled", c.host.enabled, base.host.enabled);
}

/// `c` as C++ statements building `spec` (in namespace hhpim::fleet), the
/// execution knobs as a trailing comment.
inline std::string print_case(const FleetCase& c) {
  const FleetSpec& s = c.spec;
  const auto shape = [](workload::Scenario v) {
    return std::string{"*workload::from_string(\""} + workload::to_string(v) + "\")";
  };
  std::ostringstream os;
  os << std::setprecision(17) << std::boolalpha << "FleetSpec spec;\nspec.name = \"" << s.name
     << "\";\nspec.devices = " << s.devices << ";\nspec.slices = " << s.slices
     << ";\nspec.seed = " << s.seed << "ULL;\nspec.models = {";
  for (const nn::Model& m : s.models) os << "*nn::zoo::find_model(\"" << m.name() << "\"), ";
  os << "};\nspec.mix = {";
  for (const workload::Scenario v : s.mix) os << shape(v) << ", ";
  os << "};\n";
  print_config(os, "spec.config", s.config, sys::SystemConfig{});
  if (!s.firmware.empty()) os << "spec.firmware = {spec.config};\n";
  for (std::size_t i = 1; i < s.firmware.size(); ++i) {
    os << "spec.firmware.push_back(spec.config);\n";
    print_config(os, "spec.firmware.back()", s.firmware[i], s.config);
  }
  os << "spec.adapt = " << s.adapt << ";\nspec.battery.capacity = Energy::pj("
     << s.battery.capacity.as_pj() << ");\nspec.charging = {" << s.charging.period << ", "
     << s.charging.window << ", Energy::pj(" << s.charging.energy_per_slice.as_pj()
     << ")};\nspec.lifecycle = {" << s.lifecycle.join_fraction << ", "
     << s.lifecycle.leave_fraction << "};\n";
  for (const LifecycleOverride& o : s.lifecycle_overrides) {
    os << "spec.lifecycle_overrides.push_back({" << o.id << ", " << o.join_slice << ", "
       << o.leave_slice << "});\n";
  }
  if (s.envelope.enabled) {
    os << "spec.envelope.enabled = true;\nspec.envelope.shape = " << shape(s.envelope.shape)
       << ";\nspec.envelope.seed = " << s.envelope.seed << "ULL;\nspec.envelope.min_multiplier = "
       << s.envelope.min_multiplier << ";\nspec.envelope.max_multiplier = "
       << s.envelope.max_multiplier << ";\n";
  }
  os << "spec.latency_slo = Time::ps(" << s.latency_slo.as_ps() << ");\n";
  for (const SloOverride& o : s.slo_overrides) {
    os << "spec.slo_overrides.push_back({" << o.id << ", Time::ps(" << o.latency_slo.as_ps()
       << ")});\n";
  }
  os << "// shard_size " << c.shard_size << ", cuts {";
  for (const int cut : c.cuts) os << cut << ",";
  os << "}, segment threads " << c.seg_threads << ", fresh-cache segments memoize "
     << c.fresh_memo << "\n";
  return os.str();
}

/// A firmware (any paper architecture, the host on or off), a model, slices
/// of 0, 1, 2 and >= 3 tasks (the batched kernel's threshold) and, on
/// HH-PIM, the fleet's low-power placement pinned over a window of slices.
struct ProcessorCase {
  sys::SystemConfig config = base_config();
  std::size_t model = 0;  ///< into zoo()
  std::vector<int> loads;
  int override_from = -1;  ///< first slice under the override; -1 = none
  int override_until = 0;  ///< first slice after it
};

inline ProcessorCase random_processor_case(SplitMix64& rng) {
  ProcessorCase c;
  c.config = random_firmware(rng, one_in(rng, 2));
  c.model = below(rng, zoo().size());
  const std::uint64_t n = 4 + below(rng, 9);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto pick = static_cast<int>(below(rng, 4));  // 0, 1, 2, or 3..10 tasks
    c.loads.push_back(pick < 3 ? pick : 3 + static_cast<int>(below(rng, 8)));
  }
  if (c.config.arch.kind == sys::ArchKind::kHhpim && one_in(rng, 2)) {
    c.override_from = static_cast<int>(below(rng, n));
    c.override_until = c.override_from + 1 + static_cast<int>(below(rng, n));
  }
  return c;
}

}  // namespace hhpim::fleet::cases
