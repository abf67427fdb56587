// Ablation A4: DP resolution vs solution quality (the paper's "limit the
// resolution so construction stays under 1 % of the time slice").
//
// Sweeps the LUT resolution and reports construction cost and the resulting
// scenario energy; also shows what the paper's 1 % rule would pick. The
// energies on stdout are deterministic (two runs print the same bytes); the
// LUT build wall times go to stderr as a separate table.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "placement/lut.hpp"

using namespace hhpim;
using namespace hhpim::bench;

int main() {
  std::printf("== Ablation: LUT resolution vs quality ==\n\n");
  const nn::Model model = nn::zoo::efficientnet_b0();
  const auto loads = workload::generate(workload::Scenario::kRandom,
                                        workload::ScenarioConfig{.slices = 20});

  Table t{{"resolution (t x k)", "scenario energy", "vs finest (%)", "deadline misses"}};
  Table timing{{"resolution (t x k)", "LUT build (ms)"}};
  double finest_energy = 0.0;
  std::vector<std::pair<int, double>> rows;
  for (const int r : {256, 128, 64, 32, 16}) {
    sys::SystemConfig c = bench_config(sys::ArchConfig::hhpim());
    c.lut_t_entries = r;
    c.lut_k_blocks = r;
    const auto t0 = std::chrono::steady_clock::now();
    sys::Processor p{c, model};
    const auto t1 = std::chrono::steady_clock::now();
    const double build_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const auto run = p.run_scenario(loads);
    if (finest_energy == 0.0) finest_energy = run.total_energy.as_pj();
    const std::string resolution = std::to_string(r) + " x " + std::to_string(r);
    t.add_row({resolution, run.total_energy.to_string(),
               pct(100.0 * (run.total_energy.as_pj() / finest_energy - 1.0)),
               std::to_string(run.deadline_violations)});
    timing.add_row({resolution, format_double(build_ms, 1)});
  }
  std::printf("%s\n", t.render().c_str());
  std::fprintf(stderr, "LUT build wall time:\n%s\n", timing.render().c_str());

  sys::Processor ref{bench_config(sys::ArchConfig::hhpim()), model};
  const auto choice = placement::pick_resolution(ref.slice_length(), 0.01, 1000.0);
  std::printf("Paper's 1%% rule on this slice (T = %s, 1000 DP cells/us device):\n"
              "  -> %d x %d resolution, estimated %.0f us of construction.\n",
              ref.slice_length().to_string().c_str(), choice.t_entries, choice.k_blocks,
              choice.estimated_us);
  return 0;
}
