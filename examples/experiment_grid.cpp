// Experiment-grid CLI: runs an architecture x model x scenario grid through
// the parallel experiment runner and writes JSON/CSV results.
//
//   ./experiment_grid [--threads=N] [--slices=K] [--lut=R] [--seed=S]
//                     [--models=all|EfficientNet-B0,ResNet-18,...]
//                     [--scenarios=paper|extended|all|name1,name2,...]
//                     [--trace=FILE]        # adds a trace-replay scenario
//                     [--json=PATH] [--csv=PATH] [--with-slices] [--quiet]
//
// The same spec at any --threads value produces byte-identical JSON/CSV —
// CI diffs --threads=1 against --threads=2 as a determinism smoke check.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/threads.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "placement/lut_cache.hpp"
#include "nn/zoo.hpp"
#include "workload/scenario.hpp"

using namespace hhpim;

namespace {

int run_cli(const Cli& cli) {
  workload::ScenarioConfig wc;
  wc.slices = static_cast<int>(cli.get_int("slices", 20));

  exp::ExperimentSpec spec;
  spec.name = "experiment-grid";
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed2025));
  const auto table1 = sys::ArchConfig::paper_table1();
  spec.archs.assign(table1.begin(), table1.end());

  // Model axis.
  const std::string models_arg = cli.get("models", "all");
  if (models_arg == "all") {
    spec.models = nn::zoo::paper_models();
  } else {
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

  // Scenario axis.
  const std::string scenarios_arg = cli.get("scenarios", "paper");
  std::vector<workload::Scenario> kinds;
  if (scenarios_arg == "paper" || scenarios_arg == "all") {
    const auto s = workload::all_scenarios();
    kinds.assign(s.begin(), s.end());
  }
  if (scenarios_arg == "extended" || scenarios_arg == "all") {
    kinds.push_back(workload::Scenario::kRamp);
    kinds.push_back(workload::Scenario::kBurstDecay);
    kinds.push_back(workload::Scenario::kPoisson);
  }
  if (kinds.empty()) {
    for (const std::string& name : split(scenarios_arg, ',')) {
      const auto s = workload::from_string(trim(name));
      if (!s.has_value()) {
        std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
        return 1;
      }
      kinds.push_back(*s);
    }
  }
  for (const auto kind : kinds) {
    if (kind == workload::Scenario::kTrace) {
      std::fprintf(stderr, "trace-replay needs a file: pass --trace=FILE instead of "
                           "naming it in --scenarios\n");
      return 1;
    }
    spec.scenarios.push_back(exp::ScenarioSpec::of(kind, wc));
  }
  const std::string trace_path = cli.get("trace", "");
  if (!trace_path.empty()) {
    spec.scenarios.push_back(
        exp::ScenarioSpec::fixed("trace:" + trace_path, workload::load_trace(trace_path)));
  }

  // Base config (LUT resolution keeps small grids fast).
  sys::SystemConfig base;
  const auto lut = static_cast<int>(cli.get_int("lut", 96));
  base.lut_t_entries = lut;
  base.lut_k_blocks = lut;
  spec.variants.push_back({"", base});

  exp::RunnerOptions opts;
  opts.threads = static_cast<unsigned>(cli.get_count("threads", 0));
  opts.keep_slices = cli.get_bool("with-slices", false);
  placement::LutCache lut_cache;  // private per invocation, deterministic stats
  opts.lut_cache = &lut_cache;
  const exp::Runner runner{opts};

  const exp::ResultSet results = runner.run(spec);

  const bool quiet = cli.get_bool("quiet", false);
  if (!quiet) {
    // Built: one per distinct LUT key. Shared: the HH-PIM runs that used a
    // LUT they did not build, as the fleet counts lut_shared. Both are fixed
    // by the grid; how many processors the shared pool constructed (and so
    // probed the cache) varies with scheduling.
    const std::uint64_t builds = lut_cache.stats().misses;
    const auto hhpim_archs = static_cast<std::uint64_t>(
        std::count_if(spec.archs.begin(), spec.archs.end(),
                      [](const sys::ArchConfig& a) { return a.kind == sys::ArchKind::kHhpim; }));
    const std::uint64_t hhpim_runs = hhpim_archs * (spec.run_count() / spec.archs.size());
    const std::uint64_t shared = hhpim_runs >= builds ? hhpim_runs - builds : 0;
    const auto memo = results.memo_counts();
    std::printf("grid: %zu archs x %zu models x %zu scenarios = %zu runs "
                "(%u threads, %d slices; LUT cache: %llu built, %llu shared; "
                "slice memo: %llu exact, %llu replayed)\n\n",
                spec.archs.size(), spec.models.size(), spec.scenarios.size(),
                results.size(), resolve_threads(opts.threads), wc.slices,
                static_cast<unsigned long long>(builds),
                static_cast<unsigned long long>(shared),
                static_cast<unsigned long long>(memo.exact),
                static_cast<unsigned long long>(memo.replayed));
    Table t{{"Arch", "Model", "Scenario", "total energy", "mean/slice", "misses",
             "busy (sum)"}};
    for (const auto& r : results.runs()) {
      t.add_row({r.arch, r.model, r.scenario, r.total_energy().to_string(),
                 Energy::pj(r.mean_slice_energy_pj).to_string(),
                 std::to_string(r.deadline_violations),
                 Time::ps(r.busy_time_ps).to_string()});
    }
    std::printf("%s\n", t.render().c_str());
  }

  const std::string json_path = cli.get("json", "");
  if (!json_path.empty()) {
    const int rc = write_output(json_path, quiet, "grid JSON", [&](std::ostream& os) {
      results.write_json(os, opts.keep_slices);
    });
    if (rc != 0) return rc;
  }
  const std::string csv_path = cli.get("csv", "");
  if (!csv_path.empty()) {
    const int rc = write_output(csv_path, quiet, "grid CSV",
                                [&](std::ostream& os) { results.write_csv(os); });
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Unknown flags and malformed or negative numeric flags (Cli::get_int/
  // get_count) land here.
  try {
    const Cli cli{argc, argv};
    cli.reject_unknown_flags({"threads", "slices", "lut", "seed", "models",
                              "scenarios", "trace", "json", "csv",
                              "with-slices", "quiet"});
    return run_cli(cli);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
