// Cross-validation: the analytic cost model (what the optimizer reasons
// with) against the timed simulator (what the hardware model
// measures), swept over models, architectures and randomized allocations.
// This is the load-bearing consistency check of the whole reproduction: if
// these two views drift apart, the optimizer's decisions stop meaning
// anything.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "pim/cluster.hpp"
#include "placement/cost_model.hpp"
#include "workload/scenario.hpp"

namespace hhpim {
namespace {

using energy::ClusterKind;
using energy::MemoryKind;
using placement::Allocation;
using placement::CostModel;
using placement::Space;

// --- cluster-level: DES burst timing == analytic time_per_weight ----------

class ClusterTimingProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClusterTimingProperty, DesMatchesAnalyticWithinRounding) {
  const int seed = GetParam();
  Rng rng{static_cast<std::uint64_t>(seed)};
  const auto spec = energy::PowerSpec::paper_45nm();
  energy::EnergyLedger ledger;
  const std::size_t modules = 1 + static_cast<std::size_t>(rng.next_below(4));
  pim::Cluster cluster{
      pim::ClusterConfig{"c",
                         rng.next_bool(0.5) ? ClusterKind::kHighPerformance
                                            : ClusterKind::kLowPower,
                         modules, 64 * 1024, 64 * 1024},
      spec, &ledger};

  const std::uint64_t macs = 1 + rng.next_below(50'000);
  const MemoryKind mem = rng.next_bool(0.5) ? MemoryKind::kMram : MemoryKind::kSram;
  const Time done = cluster.compute(Time::zero(), mem, macs);

  // Analytic: ceil(macs / modules) * per-MAC latency (the uneven remainder
  // goes to the lowest-index modules, which therefore finish last).
  const std::uint64_t per_module = (macs + modules - 1) / modules;
  const Time expected =
      cluster.mac_latency(mem) * static_cast<std::int64_t>(per_module);
  EXPECT_EQ(done, expected) << "seed=" << seed << " macs=" << macs
                            << " modules=" << modules;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterTimingProperty, ::testing::Range(1, 30));

// --- task-level: Processor busy time == analytic task_time ----------------


class TaskTimingProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TaskTimingProperty, StaticArchBusyTimeMatchesCostModel) {
  const auto [arch_idx, model_idx] = GetParam();
  const auto arch = sys::ArchConfig::paper_table1()[static_cast<std::size_t>(arch_idx)];
  if (arch.kind == sys::ArchKind::kHhpim) GTEST_SKIP() << "dynamic placement varies";
  const auto model = nn::zoo::paper_models()[static_cast<std::size_t>(model_idx)];

  sys::SystemConfig c;
  c.arch = arch;
  sys::Processor p{c, model};
  const int n_tasks = 3;
  const auto s = p.run_slice(n_tasks);

  const Time analytic = placement::task_time(p.cost_model(), s.alloc);
  // Tasks run back-to-back; MAC-count rounding across spaces/modules costs at
  // most a few MAC latencies per task.
  const double measured_ms = s.busy_time.as_ms();
  const double expected_ms = analytic.as_ms() * n_tasks;
  EXPECT_NEAR(measured_ms, expected_ms, expected_ms * 0.002 + 0.001)
      << arch.name << " / " << model.name();
}

INSTANTIATE_TEST_SUITE_P(Grid, TaskTimingProperty,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 3)));

// --- energy-level: DES dynamic energy == analytic dyn_per_weight ----------

class EnergyProperty : public ::testing::TestWithParam<int> {};

TEST_P(EnergyProperty, DynamicEnergyMatchesCostModel) {
  const int model_idx = GetParam();
  const auto model = nn::zoo::paper_models()[static_cast<std::size_t>(model_idx)];
  // Hybrid-PIM: fixed all-MRAM placement makes the accounting transparent.
  sys::SystemConfig c;
  c.arch = sys::ArchConfig::hybrid();
  sys::Processor p{c, model};
  const auto s = p.run_slice(2);

  const Energy analytic_dyn =
      placement::task_dynamic_energy(p.cost_model(), s.alloc) * 2.0;
  const Energy measured_dyn = p.ledger().dynamic_total();
  // The DES adds nothing but rounding on top of the per-MAC dynamic model.
  EXPECT_NEAR(measured_dyn.as_uj(), analytic_dyn.as_uj(), analytic_dyn.as_uj() * 0.01)
      << model.name();
  // And leakage exists but is a separate account.
  EXPECT_GT(p.ledger().total(energy::Activity::kLeakage).as_pj(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Models, EnergyProperty, ::testing::Range(0, 3));

// --- LUT-level: every feasible entry is executable within its constraint --

class LutExecutableProperty : public ::testing::TestWithParam<int> {};

TEST_P(LutExecutableProperty, FeasibleEntriesExecuteWithinConstraint) {
  const auto model = nn::zoo::paper_models()[static_cast<std::size_t>(GetParam())];
  sys::SystemConfig c;
  c.lut_t_entries = 24;
  c.lut_k_blocks = 32;
  sys::Processor p{c, model};
  ASSERT_NE(p.lut(), nullptr);
  for (const auto& e : p.lut()->entries()) {
    if (!e.feasible) continue;
    EXPECT_LE(placement::task_time(p.cost_model(), e.alloc).as_ns(),
              e.t_constraint.as_ns() * 1.0001)
        << model.name() << " tc=" << e.t_constraint.to_string();
    EXPECT_EQ(e.alloc.total(), model.effective_params());
    EXPECT_TRUE(placement::fits(p.cost_model(), e.alloc));
  }
}

INSTANTIATE_TEST_SUITE_P(Models, LutExecutableProperty, ::testing::Range(0, 3));

// --- determinism: identical runs produce identical joules ------------------

TEST(Determinism, ScenarioEnergyIsBitStable) {
  const auto model = nn::zoo::mobilenet_v2();
  const auto loads = workload::generate(workload::Scenario::kRandom,
                                        workload::ScenarioConfig{.slices = 6});
  double first = 0.0;
  for (int i = 0; i < 3; ++i) {
    sys::SystemConfig c;
    c.lut_t_entries = 24;
    c.lut_k_blocks = 24;
    sys::Processor p{c, model};
    const auto run = p.run_scenario(loads);
    if (i == 0) {
      first = run.total_energy.as_pj();
    } else {
      EXPECT_DOUBLE_EQ(run.total_energy.as_pj(), first);
    }
  }
}

}  // namespace
}  // namespace hhpim
