// The exp grid's half of the differential oracle (test_oracle.cpp): random
// grids, the reference every runner strategy must reproduce — a fresh
// processor's Processor::run_scenario per run, as a RunResult — and the
// field-by-field comparison test_exp.cpp shares.
//
// A random grid draws Table I architectures, zoo models, generator shapes
// and fixed traces (empty slices, loads past fleet::State::kIndexedLoads)
// and NVSim-lite and host-on variants from one SplitMix64 stream, so a seed
// names a grid on every host; print_grid() writes one as C++.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "energy/ledger.hpp"
#include "exp/result.hpp"
#include "exp/spec.hpp"
#include "fleet_cases.hpp"
#include "hhpim/processor.hpp"
#include "mem/nvsim_lite.hpp"
#include "nn/zoo.hpp"
#include "workload/scenario.hpp"

namespace hhpim::exp::cases {

using fleet::cases::below;
using fleet::cases::one_in;

/// The RunResult of a fresh Processor's run_scenario on `cache` (null =
/// a private LUT build), field by field.
inline RunResult direct_result(const RunSpec& spec, placement::LutCache* cache) {
  sys::SystemConfig config = spec.config;
  config.lut_cache = cache;
  sys::Processor p{config, spec.model};
  const sys::RunStats stats = p.run_scenario(spec.loads);
  const energy::EnergyLedger& ledger = p.ledger();
  RunResult r;
  r.index = spec.index;
  r.variant = spec.variant;
  r.arch = spec.arch;
  r.model = spec.model_name;
  r.scenario = spec.scenario;
  r.seed = spec.seed;
  r.slice_ps = p.slice_length().as_ps();
  r.slices = static_cast<int>(stats.slices.size());
  r.tasks = stats.tasks;
  r.deadline_violations = stats.deadline_violations;
  r.total_energy_pj = stats.total_energy.as_pj();
  r.mean_slice_energy_pj = stats.mean_slice_energy().as_pj();
  r.dynamic_energy_pj = ledger.dynamic_total().as_pj();
  r.leakage_energy_pj = ledger.total(energy::Activity::kLeakage).as_pj();
  r.transfer_energy_pj = ledger.total(energy::Activity::kTransfer).as_pj();
  r.total_time_ps = stats.total_time.as_ps();
  for (const sys::SliceStats& s : stats.slices) {
    r.busy_time_ps += s.busy_time.as_ps();
    r.max_busy_ps = std::max(r.max_busy_ps, s.busy_time.as_ps());
    r.movement_time_ps += s.movement_time.as_ps();
    r.slice_metrics.push_back({s.slice, s.tasks_executed, s.busy_time.as_ps(),
                               s.movement_time.as_ps(), s.energy.as_pj(),
                               s.deadline_violated});
  }
  return r;
}

/// "" when every field of `got` equals `want`'s — doubles bit for bit, the
/// per-slice metrics only when `slices` — and its memo counts cover every
/// slice; else the first field that differs.
inline std::string difference(const RunResult& got, const RunResult& want, bool slices = true) {
  std::ostringstream os;
  const auto field = [&](const char* name, const auto& g, const auto& w) {
    if (os.tellp() == 0 && !(g == w)) os << name << " " << g << " != " << w;
  };
  const auto real = [&](const char* name, double g, double w) {
    if (os.tellp() == 0 && std::bit_cast<std::uint64_t>(g) != std::bit_cast<std::uint64_t>(w)) {
      os << std::setprecision(17) << name << " " << g << " != " << w;
    }
  };
  field("index", got.index, want.index);
  field("variant", got.variant, want.variant);
  field("arch", got.arch, want.arch);
  field("model", got.model, want.model);
  field("scenario", got.scenario, want.scenario);
  field("seed", got.seed, want.seed);
  field("slice_ps", got.slice_ps, want.slice_ps);
  field("slices", got.slices, want.slices);
  field("tasks", got.tasks, want.tasks);
  field("deadline_violations", got.deadline_violations, want.deadline_violations);
  real("total_energy_pj", got.total_energy_pj, want.total_energy_pj);
  real("mean_slice_energy_pj", got.mean_slice_energy_pj, want.mean_slice_energy_pj);
  real("dynamic_energy_pj", got.dynamic_energy_pj, want.dynamic_energy_pj);
  real("leakage_energy_pj", got.leakage_energy_pj, want.leakage_energy_pj);
  real("transfer_energy_pj", got.transfer_energy_pj, want.transfer_energy_pj);
  field("total_time_ps", got.total_time_ps, want.total_time_ps);
  field("busy_time_ps", got.busy_time_ps, want.busy_time_ps);
  field("max_busy_ps", got.max_busy_ps, want.max_busy_ps);
  field("movement_time_ps", got.movement_time_ps, want.movement_time_ps);
  field("memo_exact + memo_replayed", got.memo_exact + got.memo_replayed,
        static_cast<std::uint64_t>(want.slices));
  field("slice_metrics.size()", got.slice_metrics.size(),
        slices ? want.slice_metrics.size() : std::size_t{0});
  for (std::size_t k = 0; slices && os.tellp() == 0 && k < want.slice_metrics.size(); ++k) {
    const SliceMetrics& g = got.slice_metrics[k];
    const SliceMetrics& w = want.slice_metrics[k];
    field("slice", g.slice, w.slice);
    field("tasks", g.tasks, w.tasks);
    field("busy_ps", g.busy_ps, w.busy_ps);
    field("movement_ps", g.movement_ps, w.movement_ps);
    real("energy_pj", g.energy_pj, w.energy_pj);
    field("deadline_violated", g.deadline_violated, w.deadline_violated);
    if (os.tellp() != 0) os << " at slice " << k;
  }
  if (os.tellp() != 0) {
    os << " (" << want.arch << " / " << want.model << " / " << want.scenario << " / '"
       << want.variant << "')";
  }
  return os.str();
}

/// Vdd_LP points of the NVSim-lite variants (Vdd_HP stays at 1.2 V).
inline constexpr double kVddLp[] = {1.1, 1.0, 0.9, 0.8, 0.7, 0.6};

/// A grid over 1-4 Table I archs, 1-2 zoo models, 1-2 scenarios (generator
/// shapes of 1-8 slices, or fixed traces of 0-12 slices with empty slices
/// and loads up to 45) and 1-2 variants of the LUT r16 config (as is,
/// NVSim-lite at one Vdd_LP point, or the host core on).
inline ExperimentSpec random_grid(SplitMix64& rng) {
  ExperimentSpec spec;
  spec.name = "grid-oracle";
  spec.seed = rng.next();
  for (const sys::ArchConfig& a : sys::ArchConfig::paper_table1()) {
    if (one_in(rng, 2)) spec.archs.push_back(a);
  }
  if (spec.archs.empty()) spec.archs.push_back(sys::ArchConfig::paper_table1()[below(rng, 4)]);
  const std::vector<nn::Model> zoo = nn::zoo::paper_models();
  spec.models.push_back(zoo[below(rng, zoo.size())]);
  if (one_in(rng, 4)) spec.models.push_back(zoo[below(rng, zoo.size())]);
  for (std::uint64_t i = 1 + below(rng, 2); i > 0; --i) {
    if (one_in(rng, 3)) {
      std::vector<int> loads(below(rng, 13));
      for (int& n : loads) {
        n = one_in(rng, 3) ? 0 : static_cast<int>(one_in(rng, 3) ? 31 + below(rng, 15)
                                                                  : below(rng, 31));
      }
      spec.scenarios.push_back(
          ScenarioSpec::fixed("trace-" + std::to_string(spec.scenarios.size()), loads));
    } else {
      workload::ScenarioConfig wc;
      wc.slices = 1 + static_cast<int>(below(rng, 8));
      spec.scenarios.push_back(ScenarioSpec::of(fleet::cases::kShapes[below(rng, 9)], wc));
    }
  }
  for (std::uint64_t i = one_in(rng, 4) ? 2 : 1; i > 0; --i) {
    sys::SystemConfig c = fleet::cases::base_config();
    std::string name = "r16";
    if (one_in(rng, 3)) {
      const double vdd = kVddLp[below(rng, 6)];
      c.power = mem::NvsimLite{}.make_spec(1.2, vdd);
      name = "nvsim-" + std::to_string(vdd).substr(0, 3);
    } else if (one_in(rng, 2)) {
      c.host.enabled = true;
      name = "host";
    }
    spec.variants.push_back({name + "-" + std::to_string(spec.variants.size()), c});
  }
  return spec;
}

/// `spec` as C++ statements building `spec` (in namespace hhpim::exp).
inline std::string print_grid(const ExperimentSpec& spec) {
  constexpr const char* kArchs[] = {"baseline", "hetero", "hybrid", "hhpim"};  // by ArchKind
  std::ostringstream os;
  os << "ExperimentSpec spec;\nspec.name = \"" << spec.name << "\";\nspec.seed = " << spec.seed
     << "ULL;\n";
  for (const sys::ArchConfig& a : spec.archs) {
    os << "spec.archs.push_back(sys::ArchConfig::" << kArchs[static_cast<int>(a.kind)] << "());\n";
  }
  for (const nn::Model& m : spec.models) {
    os << "spec.models.push_back(*nn::zoo::find_model(\"" << m.name() << "\"));\n";
  }
  for (const ScenarioSpec& s : spec.scenarios) {
    if (s.is_fixed) {
      os << "spec.scenarios.push_back(ScenarioSpec::fixed(\"" << s.name << "\", {";
      for (const int n : s.explicit_loads) os << n << ", ";
      os << "}));\n";
    } else {
      os << "spec.scenarios.push_back(ScenarioSpec::of(*workload::from_string(\""
         << workload::to_string(s.kind) << "\"), {.slices = " << s.cfg.slices << "}));\n";
    }
  }
  for (const ConfigVariant& v : spec.variants) {
    os << "spec.variants.push_back({\"" << v.name << "\", fleet::cases::base_config()});\n";
    if (v.config.power.has_value()) {  // "nvsim-<Vdd_LP>-<i>" (random_grid)
      os << "spec.variants.back().config.power = mem::NvsimLite{}.make_spec(1.2, "
         << v.name.substr(6, 3) << ");\n";
    }
    if (v.config.host.enabled) os << "spec.variants.back().config.host.enabled = true;\n";
  }
  return os.str();
}

}  // namespace hhpim::exp::cases
