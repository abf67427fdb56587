// Placement-aware NAS grid: width-variant ladders of the zoo models swept
// through the experiment runner on the HH-PIM arch, each variant annotated
// with its placement Pareto frontier (docs/PARETO.md).
//
//   ./pareto_nas [--threads=N] [--slices=K] [--lut=R] [--seed=S]
//                [--models=all|EfficientNet-B0,ResNet-18,...]
//                [--scales=0.50,0.75,1.00]   # width-variant ladder per model
//                [--scenarios=paper|name1,name2,...]
//                [--slo-frac=0.6]            # latency SLO as a slice fraction
//                [--csv=PATH] [--quiet]
//
// Two halves join in the output:
//   * per-run workload metrics from exp::Runner (energy, busy time, misses) —
//     byte-identical at any --threads value, like experiment_grid (CI diffs
//     --threads=1 against --threads=8 on the CSV as a determinism smoke);
//   * per-variant frontier metrics read from the shared placement LUT at the
//     SLO's entry: frontier size, the min-energy anchor (the legacy knapsack
//     answer), the min-latency point, and the frontier's SRAM-pressure floor.
//
// The interesting NAS read-out is the *shape* of the trade: scaling a model
// down narrows the gap between the anchor and the min-latency point (less to
// place, less room to trade), while the SRAM floor tracks how much of the
// variant must stay resident to meet the SLO at all.
#include <cstdio>
#include <cstdlib>
#include <map>
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
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "placement/lut.hpp"
#include "placement/lut_cache.hpp"
#include "placement/pareto.hpp"
#include "workload/scenario.hpp"

using namespace hhpim;

namespace {

/// The frontier read-out of one variant at the SLO entry. Zeroed when the
/// model's LUT has no feasible entry (frontier_points == 0 flags it).
struct FrontierMetrics {
  std::uint64_t params = 0;
  std::uint64_t macs = 0;
  std::int64_t slo_ps = 0;
  std::size_t frontier_points = 0;
  double anchor_energy_pj = 0.0;   ///< min-energy point == legacy knapsack
  std::int64_t anchor_latency_ps = 0;
  double perf_energy_pj = 0.0;     ///< min-latency point
  std::int64_t perf_latency_ps = 0;
  std::uint64_t min_sram_weights = 0;
  bool slo_met = false;            ///< some frontier point meets the SLO
};

FrontierMetrics frontier_metrics(const sys::SystemConfig& cfg, const nn::Model& model,
                                 double slo_frac) {
  FrontierMetrics fm;
  fm.params = model.effective_params();
  fm.macs = model.effective_macs();
  const sys::Processor proc{cfg, model};
  const Time slo = Time::ps(
      static_cast<std::int64_t>(static_cast<double>(proc.slice_length().as_ps()) * slo_frac));
  fm.slo_ps = slo.as_ps();
  const placement::AllocationLut* lut = proc.lut();
  if (lut == nullptr) return fm;
  const placement::LutEntry* entry = lut->lookup_or_peak(slo);
  if (entry == nullptr) return fm;
  const std::vector<placement::ParetoPoint>& frontier = lut->frontier(*entry);

  fm.frontier_points = frontier.size();
  const placement::ParetoPoint anchor = placement::min_energy_point(frontier);
  fm.anchor_energy_pj = anchor.energy.as_pj();
  fm.anchor_latency_ps = anchor.latency.as_ps();
  const placement::ParetoPoint& perf = placement::min_latency_point(frontier);
  fm.perf_energy_pj = perf.energy.as_pj();
  fm.perf_latency_ps = perf.latency.as_ps();
  fm.min_sram_weights = frontier.front().sram_weights;
  for (const placement::ParetoPoint& p : frontier) {
    if (p.sram_weights < fm.min_sram_weights) fm.min_sram_weights = p.sram_weights;
  }
  fm.slo_met = placement::best_within_slo(frontier, slo) != nullptr;
  return fm;
}

int run_cli(const Cli& cli) {
  workload::ScenarioConfig wc;
  wc.slices = static_cast<int>(cli.get_int("slices", 12));

  exp::ExperimentSpec spec;
  spec.name = "pareto-nas";
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed2025));
  // The frontier is an HH-PIM concept (the other Table I archs have no
  // placement choice to trade on), so the arch axis is a single point.
  spec.archs.push_back(sys::ArchConfig::hhpim());

  // Width-scale ladder.
  std::vector<double> scales;
  for (const std::string& s : split(cli.get("scales", "0.50,0.75,1.00"), ',')) {
    const double v = std::strtod(trim(s).c_str(), nullptr);
    if (v <= 0.0) {
      std::fprintf(stderr, "bad --scales entry '%s' (need positive factors)\n", s.c_str());
      return 1;
    }
    scales.push_back(v);
  }

  // Model axis: each base model expands into its ladder.
  std::vector<nn::Model> bases;
  const std::string models_arg = cli.get("models", "all");
  if (models_arg == "all") {
    bases = nn::zoo::paper_models();
  } else {
    for (const std::string& name : split(models_arg, ',')) {
      auto m = nn::zoo::find_model(trim(name));
      if (!m.has_value()) {
        std::fprintf(stderr, "unknown model '%s' (known: %s)\n", name.c_str(),
                     nn::zoo::known_model_names().c_str());
        return 1;
      }
      bases.push_back(std::move(*m));
    }
  }
  for (const nn::Model& base : bases) {
    for (nn::Model& v : nn::zoo::width_variants(base, scales)) {
      spec.models.push_back(std::move(v));
    }
  }
  if (spec.models.empty()) {
    std::fprintf(stderr, "no variants: every scale exceeded the structural totals\n");
    return 1;
  }

  // Scenario axis.
  const std::string scenarios_arg = cli.get("scenarios", "paper");
  if (scenarios_arg == "paper") {
    for (const auto kind : workload::all_scenarios()) {
      spec.scenarios.push_back(exp::ScenarioSpec::of(kind, wc));
    }
  } else {
    for (const std::string& name : split(scenarios_arg, ',')) {
      const auto s = workload::from_string(trim(name));
      if (!s.has_value()) {
        std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
        return 1;
      }
      spec.scenarios.push_back(exp::ScenarioSpec::of(*s, wc));
    }
  }

  sys::SystemConfig base_cfg;
  const auto lut = static_cast<int>(cli.get_int("lut", 64));
  base_cfg.lut_t_entries = lut;
  base_cfg.lut_k_blocks = lut;
  spec.variants.push_back({"", base_cfg});

  exp::RunnerOptions opts;
  opts.threads = static_cast<unsigned>(cli.get_count("threads", 0));
  placement::LutCache lut_cache;  // private per invocation, deterministic stats
  opts.lut_cache = &lut_cache;
  const exp::Runner runner{opts};
  const exp::ResultSet results = runner.run(spec);

  // Frontier annotations: one per variant, resolved from the same cache the
  // runner warmed (cache hits, so this adds no LUT builds). Computed on this
  // thread in model order — independent of --threads, like the runner's
  // grid-ordered results, which is what keeps the CSV diffable 1-vs-8.
  const double slo_frac = cli.get_double("slo-frac", 0.6);
  sys::SystemConfig probe_cfg = base_cfg;
  probe_cfg.arch = sys::ArchConfig::hhpim();
  probe_cfg.lut_cache = &lut_cache;
  std::map<std::string, FrontierMetrics> frontier;
  for (const nn::Model& m : spec.models) {
    frontier.emplace(m.name(), frontier_metrics(probe_cfg, m, slo_frac));
  }

  if (!cli.get_bool("quiet", false)) {
    std::printf("pareto-nas: %zu variants x %zu scenarios (%u threads, lut %d, "
                "SLO %.0f%% of slice)\n\n",
                spec.models.size(), spec.scenarios.size(),
                resolve_threads(opts.threads), lut, slo_frac * 100.0);
    Table t{{"Model", "params", "Scenario", "energy", "misses", "front", "SLO ok",
             "anchor lat", "perf lat"}};
    for (const auto& r : results.runs()) {
      const FrontierMetrics& fm = frontier.at(r.model);
      t.add_row({r.model, std::to_string(fm.params), r.scenario,
                 r.total_energy().to_string(), std::to_string(r.deadline_violations),
                 std::to_string(fm.frontier_points), fm.slo_met ? "yes" : "no",
                 Time::ps(fm.anchor_latency_ps).to_string(),
                 Time::ps(fm.perf_latency_ps).to_string()});
    }
    std::printf("%s\n", t.render().c_str());
  }

  const std::string csv_path = cli.get("csv", "");
  if (!csv_path.empty()) {
    const auto write_csv = [&](std::ostream& out) {
      out << "model,params,macs,scenario,tasks,deadline_violations,total_energy_pj,"
             "busy_time_ps,max_busy_ps,slo_ps,slo_met,frontier_points,"
             "anchor_energy_pj,anchor_latency_ps,perf_energy_pj,perf_latency_ps,"
             "min_sram_weights\n";
      char buf[64];
      const auto f = [&buf](double v) {  // shortest round-trip double, locale-free
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return std::string{buf};
      };
      for (const auto& r : results.runs()) {
        const FrontierMetrics& fm = frontier.at(r.model);
        out << r.model << ',' << fm.params << ',' << fm.macs << ',' << r.scenario
            << ',' << r.tasks << ',' << r.deadline_violations << ','
            << f(r.total_energy_pj) << ',' << r.busy_time_ps << ',' << r.max_busy_ps
            << ',' << fm.slo_ps << ',' << (fm.slo_met ? 1 : 0) << ','
            << fm.frontier_points << ',' << f(fm.anchor_energy_pj) << ','
            << fm.anchor_latency_ps << ',' << f(fm.perf_energy_pj) << ','
            << fm.perf_latency_ps << ',' << fm.min_sram_weights << '\n';
      }
    };
    const int rc =
        write_output(csv_path, cli.get_bool("quiet", false), "NAS CSV", write_csv);
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Malformed or negative numeric flags (Cli::get_int/get_count) land here.
  try {
    return run_cli(Cli{argc, argv});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
