#include "exp/spec.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace hhpim::exp {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t a, std::uint64_t b) {
  SplitMix64 sm{base};
  std::uint64_t s = sm.next() ^ a;
  SplitMix64 sm2{s};
  return sm2.next() ^ (b * 0x9e3779b97f4a7c15ULL);
}

ScenarioSpec ScenarioSpec::of(workload::Scenario kind, workload::ScenarioConfig cfg) {
  ScenarioSpec s;
  s.name = workload::to_string(kind);
  s.kind = kind;
  s.cfg = std::move(cfg);
  return s;
}

ScenarioSpec ScenarioSpec::fixed(std::string name, std::vector<int> loads) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.explicit_loads = std::move(loads);
  s.is_fixed = true;
  return s;
}

std::size_t ExperimentSpec::run_count() const {
  const std::size_t variants_n = variants.empty() ? 1 : variants.size();
  return variants_n * archs.size() * models.size() * scenarios.size();
}

std::vector<RunSpec> ExperimentSpec::expand() const {
  if (archs.empty() || models.empty() || scenarios.empty()) {
    throw std::invalid_argument("ExperimentSpec: archs, models and scenarios must be non-empty");
  }

  // Materialize the load trace for each scenario once; every run of the
  // scenario (any arch, model, variant) replays the same trace.
  std::vector<std::vector<int>> loads_per_scenario;
  std::vector<std::uint64_t> seed_per_scenario;
  loads_per_scenario.reserve(scenarios.size());
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const ScenarioSpec& s = scenarios[si];
    if (s.is_fixed || !s.explicit_loads.empty()) {
      loads_per_scenario.push_back(s.explicit_loads);
      seed_per_scenario.push_back(s.cfg.seed);
      continue;
    }
    workload::ScenarioConfig cfg = s.cfg;
    cfg.seed = derive_seed(seed, si, s.cfg.seed);
    loads_per_scenario.push_back(workload::generate(s.kind, cfg));
    seed_per_scenario.push_back(cfg.seed);
  }

  std::vector<ConfigVariant> vs = variants;
  if (vs.empty()) vs.emplace_back();  // one unnamed default variant

  std::vector<RunSpec> runs;
  runs.reserve(run_count());
  for (const ConfigVariant& v : vs) {
    for (const nn::Model& model : models) {
      // The paper's protocol: HH-PIM's application requirement (its slice
      // length T) is the one every architecture must honour. Derive it once
      // per (variant, model) cell so the grid's runs stay independent.
      Time shared_slice = v.config.slice;
      if (share_hhpim_slice && shared_slice == Time::zero()) {
        for (const sys::ArchConfig& a : archs) {
          if (a.kind == sys::ArchKind::kHhpim) {
            sys::SystemConfig ref = v.config;
            ref.arch = a;
            shared_slice = sys::derived_slice_length(ref, model);
            break;
          }
        }
      }
      for (std::size_t si = 0; si < scenarios.size(); ++si) {
        for (const sys::ArchConfig& a : archs) {
          RunSpec r{.index = runs.size(),
                    .variant = v.name,
                    .arch = a.name,
                    .model_name = model.name(),
                    .scenario = scenarios[si].name,
                    .config = v.config,
                    .model = model,
                    .loads = loads_per_scenario[si],
                    .seed = seed_per_scenario[si]};
          r.config.arch = a;
          if (shared_slice > Time::zero()) r.config.slice = shared_slice;
          runs.push_back(std::move(r));
        }
      }
    }
  }
  return runs;
}

}  // namespace hhpim::exp
