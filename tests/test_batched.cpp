// The steady-state fast path's load-bearing property: batched slice
// execution (sys::Processor::run_tasks_batched), processor reuse
// (Processor::reset + the runner/fleet pools) and LUT sharing all produce
// output byte-identical to the scalar, freshly-constructed, uncached path —
// across architectures, override placements, zero-task slices and thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "energy/power_spec.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/device.hpp"
#include "fleet/simulator.hpp"
#include "hhpim/processor.hpp"
#include "hhpim/scheduler.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"
#include "workload/scenario.hpp"

namespace hhpim {
namespace {

using sys::ArchConfig;
using sys::Processor;
using sys::RunStats;
using sys::SliceStats;
using sys::SystemConfig;

SystemConfig small_config(ArchConfig arch, bool batched) {
  SystemConfig c;
  c.arch = arch;
  c.lut_t_entries = 16;
  c.lut_k_blocks = 16;
  c.batched_execution = batched;
  return c;
}

std::vector<int> mixed_loads() {
  // Exercises n = 0, 1, 2 (scalar inside the batched path), the batched
  // tail (>= 3), and the peak load.
  return {10, 4, 0, 1, 7, 2, 10, 0, 3, 5, 8};
}

/// Strict equality — times are integer ps, energies compared bit-for-bit
/// via their double pj value, as the JSON writers would render them.
void expect_identical(const RunStats& a, const RunStats& b) {
  ASSERT_EQ(a.slices.size(), b.slices.size());
  for (std::size_t i = 0; i < a.slices.size(); ++i) {
    const SliceStats& x = a.slices[i];
    const SliceStats& y = b.slices[i];
    EXPECT_EQ(x.slice, y.slice) << "slice " << i;
    EXPECT_EQ(x.tasks_executed, y.tasks_executed) << "slice " << i;
    EXPECT_EQ(x.alloc, y.alloc) << "slice " << i;
    EXPECT_EQ(x.movement_time.as_ps(), y.movement_time.as_ps()) << "slice " << i;
    EXPECT_EQ(x.busy_time.as_ps(), y.busy_time.as_ps()) << "slice " << i;
    EXPECT_EQ(x.energy.as_pj(), y.energy.as_pj()) << "slice " << i;
    EXPECT_EQ(x.deadline_violated, y.deadline_violated) << "slice " << i;
  }
  EXPECT_EQ(a.total_energy.as_pj(), b.total_energy.as_pj());
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.deadline_violations, b.deadline_violations);
  EXPECT_EQ(a.total_time.as_ps(), b.total_time.as_ps());
}

RunStats run_arch(ArchConfig arch, bool batched, const std::vector<int>& loads) {
  Processor proc{small_config(arch, batched), nn::zoo::efficientnet_b0()};
  return proc.run_scenario(loads);
}

TEST(BatchedExecution, MatchesScalarAcrossArchitectures) {
  for (const ArchConfig& arch : ArchConfig::paper_table1()) {
    SCOPED_TRACE(arch.name);
    if (arch.kind == sys::ArchKind::kBaseline || arch.kind == sys::ArchKind::kHybrid) {
      // One active space (HP-SRAM / HP-MRAM): the whole task is one HP
      // cluster burst. Unequal per-module MAC shares make the replay
      // reproduce per-module gaps exactly, and the idle LP cluster (if any)
      // must survive its zero-delta fast-forward untouched.
      ASSERT_NE(nn::zoo::efficientnet_b0().pim_macs() % arch.hp_modules, 0u);
    }
    const RunStats scalar = run_arch(arch, false, mixed_loads());
    const RunStats batched = run_arch(arch, true, mixed_loads());
    expect_identical(scalar, batched);
  }
}

TEST(BatchedExecution, MatchesScalarUnderPlacementOverride) {
  const nn::Model model = nn::zoo::efficientnet_b0();
  const std::vector<int> loads = mixed_loads();
  RunStats results[2];
  for (int batched = 0; batched < 2; ++batched) {
    Processor proc{small_config(ArchConfig::hhpim(), batched != 0), model};
    // Pin the low-power MRAM split (two active spaces, both MRAM — the
    // fleet's adaptation placement), run, then release the override
    // mid-scenario.
    RunStats run;
    const placement::Allocation low_power =
        sys::balanced_mram_split(proc.cost_model(), proc.total_weights());
    proc.set_placement_override(low_power);
    int buffered = 0;
    for (std::size_t k = 0; k <= loads.size(); ++k) {
      if (k == loads.size() / 2) proc.set_placement_override(std::nullopt);
      const int arriving = k < loads.size() ? loads[k] : 0;
      SliceStats s = proc.run_slice(buffered);
      run.tasks += static_cast<std::uint64_t>(s.tasks_executed);
      run.deadline_violations += s.deadline_violated ? 1 : 0;
      run.slices.push_back(std::move(s));
      buffered = arriving;
    }
    run.total_energy = proc.ledger().total();
    results[batched] = std::move(run);
  }
  expect_identical(results[0], results[1]);
}

TEST(BatchedExecution, ZeroAndTinyTaskSlices) {
  // All-zero and sub-batch-threshold loads never enter the replay kernel;
  // the two paths must still agree exactly (and trivially do — pin it).
  const std::vector<int> loads = {0, 0, 1, 0, 2, 0};
  for (const ArchConfig& arch : {ArchConfig::hhpim(), ArchConfig::hybrid()}) {
    SCOPED_TRACE(arch.name);
    expect_identical(run_arch(arch, false, loads), run_arch(arch, true, loads));
  }
}

TEST(ProcessorReset, ResetEqualsFreshConstruction) {
  const nn::Model model = nn::zoo::efficientnet_b0();
  placement::LutCache cache;
  SystemConfig config = small_config(ArchConfig::hhpim(), true);
  config.lut_cache = &cache;

  Processor reused{config, model};
  (void)reused.run_scenario({3, 9, 0, 5});  // arbitrary first life
  reused.set_placement_override(
      sys::balanced_mram_split(reused.cost_model(), reused.total_weights()));
  (void)reused.run_slice(2);  // leave override + partial state behind
  reused.reset();

  Processor fresh{config, model};
  expect_identical(fresh.run_scenario(mixed_loads()),
                   reused.run_scenario(mixed_loads()));
  EXPECT_FALSE(reused.placement_override_active());
}

TEST(ProcessorReset, RepeatedResetRunsAreStable) {
  const nn::Model model = nn::zoo::mobilenet_v2();
  SystemConfig config = small_config(ArchConfig::hhpim(), true);
  Processor proc{config, model};
  const RunStats first = proc.run_scenario({5, 2, 8});
  for (int i = 0; i < 3; ++i) {
    proc.reset();
    expect_identical(first, proc.run_scenario({5, 2, 8}));
  }
}

TEST(RunnerGrid, ByteIdenticalScalarVsBatchedAtAnyThreadCount) {
  exp::ExperimentSpec spec;
  spec.name = "batched-grid";
  spec.archs = {ArchConfig::hhpim(), ArchConfig::hetero()};
  spec.models = {nn::zoo::efficientnet_b0(), nn::zoo::resnet18()};
  workload::ScenarioConfig wc;
  wc.slices = 5;
  spec.scenarios = {exp::ScenarioSpec::of(workload::Scenario::kPulsing, wc),
                    exp::ScenarioSpec::of(workload::Scenario::kRandom, wc)};
  SystemConfig fast_cfg;
  fast_cfg.lut_t_entries = 16;
  fast_cfg.lut_k_blocks = 16;
  SystemConfig scalar_cfg = fast_cfg;
  scalar_cfg.batched_execution = false;

  exp::ExperimentSpec scalar_spec = spec;
  scalar_spec.variants.push_back({"", scalar_cfg});
  exp::ExperimentSpec fast_spec = spec;
  fast_spec.variants.push_back({"", fast_cfg});

  // The fully scalar reference: every run on its own freshly constructed
  // processor with a private LUT.
  std::vector<exp::RunResult> runs;
  for (const exp::RunSpec& run : scalar_spec.expand()) {
    runs.push_back(exp::Runner::execute(run, false, nullptr, nullptr));
  }
  exp::ResultSet scalar{std::move(runs)};
  scalar.experiment_name = scalar_spec.name;

  placement::LutCache c1, c8;
  const exp::ResultSet fast1 =
      exp::Runner{{.threads = 1, .lut_cache = &c1}}.run(fast_spec);
  const exp::ResultSet fast8 =
      exp::Runner{{.threads = 8, .lut_cache = &c8}}.run(fast_spec);

  // The variant label is the only allowed difference — none exists here.
  EXPECT_EQ(scalar.to_json(), fast1.to_json());
  EXPECT_EQ(scalar.to_csv(), fast1.to_csv());
  EXPECT_EQ(fast1.to_json(), fast8.to_json());
  EXPECT_EQ(fast1.to_csv(), fast8.to_csv());
  EXPECT_FALSE(scalar.to_json().empty());
}

TEST(FleetFastPath, ByteIdenticalScalarVsBatchedAndAcrossThreads) {
  fleet::FleetSpec spec;
  spec.name = "batched-fleet";
  spec.devices = 24;
  spec.slices = 6;
  spec.models = {nn::zoo::efficientnet_b0()};
  spec.config.lut_t_entries = 16;
  spec.config.lut_k_blocks = 16;

  fleet::FleetSpec scalar_spec = spec;
  scalar_spec.config.batched_execution = false;

  placement::LutCache c1, c8;
  fleet::FleetOptions fast1{.threads = 1, .shard_size = 4, .lut_cache = &c1};
  fleet::FleetOptions fast8{.threads = 8, .shard_size = 4, .lut_cache = &c8};
  const fleet::FleetResult r1 = fleet::FleetSimulator{fast1}.run(spec);
  const fleet::FleetResult r8 = fleet::FleetSimulator{fast8}.run(spec);

  // The scalar reference: every device on its own owning fleet::Device (a
  // freshly constructed processor with a private LUT; no pool, no memo),
  // shard aggregates merged in shard order as the simulator merges them.
  // LUT and shard accounting belong to the pooled run; every byte the
  // devices produce must match.
  fleet::FleetResult scalar = r1;
  scalar.devices.clear();
  scalar.aggregate = fleet::FleetAggregate{scalar_spec.histograms};
  const std::vector<nn::Model> models = scalar_spec.resolved_models();
  const std::vector<fleet::DeviceSpec> devices = scalar_spec.expand();
  for (std::size_t begin = 0; begin < devices.size(); begin += r1.shard_size) {
    fleet::FleetAggregate shard{scalar_spec.histograms};
    for (std::size_t i = begin; i < std::min(devices.size(), begin + r1.shard_size); ++i) {
      fleet::Device dev{scalar_spec, devices[i], models[devices[i].model_index], nullptr};
      scalar.devices.push_back(dev.run(&shard));
    }
    scalar.aggregate.merge(shard);
  }

  EXPECT_EQ(scalar.to_jsonl(), r1.to_jsonl());  // one JSONL formatter
  EXPECT_EQ(scalar.summary_to_json(), r1.summary_to_json());
  EXPECT_EQ(r1.to_jsonl(), r8.to_jsonl());
  EXPECT_EQ(r1.summary_to_json(), r8.summary_to_json());
  EXPECT_NE(r1.to_jsonl(), "");
}

}  // namespace
}  // namespace hhpim
