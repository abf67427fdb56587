// The steady-state fast path's load-bearing property: batched slice
// execution (sys::Processor::run_tasks_batched) and processor reuse
// (Processor::reset) produce results bit-identical to the scalar per-task
// loop (reached through the sys::testing::ScalarTasks seam) and to fresh
// construction. The batched and scalar paths are compared after every slice
// — SliceStats and save_state() bytes — across the paper's
// architectures and random cases (firmware incl. the host, models, loads
// of 0/1/2/>=3 tasks, the low-power placement override on and off). Fleet
// and grid byte identity is the differential oracle's (test_oracle.cpp).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fleet_cases.hpp"
#include "hhpim/processor.hpp"
#include "hhpim/scheduler.hpp"
#include "state_bytes.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim {
namespace {

using fleet::cases::ProcessorCase;
using sys::ArchConfig;
using sys::Processor;
using sys::RunStats;
using sys::SliceStats;
using sys::SystemConfig;

std::vector<int> mixed_loads() {
  // Exercises n = 0, 1, 2 (scalar inside the batched path), the batched
  // tail (>= 3), and the peak load.
  return {10, 4, 0, 1, 7, 2, 10, 0, 3, 5, 8};
}

/// Strict equality — times are integer ps, energies compared bit-for-bit
/// via their double pj value, as the JSON writers would render them.
void expect_identical(const SliceStats& x, const SliceStats& y, std::size_t i) {
  EXPECT_EQ(x.slice, y.slice) << "slice " << i;
  EXPECT_EQ(x.tasks_executed, y.tasks_executed) << "slice " << i;
  EXPECT_EQ(x.alloc, y.alloc) << "slice " << i;
  EXPECT_EQ(x.movement_time.as_ps(), y.movement_time.as_ps()) << "slice " << i;
  EXPECT_EQ(x.busy_time.as_ps(), y.busy_time.as_ps()) << "slice " << i;
  EXPECT_EQ(x.energy.as_pj(), y.energy.as_pj()) << "slice " << i;
  EXPECT_EQ(x.deadline_violated, y.deadline_violated) << "slice " << i;
  EXPECT_EQ(x.host_cycles, y.host_cycles) << "slice " << i;
}

void expect_identical(const RunStats& a, const RunStats& b) {
  ASSERT_EQ(a.slices.size(), b.slices.size());
  for (std::size_t i = 0; i < a.slices.size(); ++i) {
    expect_identical(a.slices[i], b.slices[i], i);
  }
  EXPECT_EQ(a.total_energy.as_pj(), b.total_energy.as_pj());
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.deadline_violations, b.deadline_violations);
  EXPECT_EQ(a.total_time.as_ps(), b.total_time.as_ps());
}

/// Runs `c` on a batched and a scalar processor slice by slice (arrivals of
/// slice k execute in slice k+1, plus the drain slice), comparing the
/// slice's stats and the saved state after every slice.
void expect_batched_matches_scalar(const ProcessorCase& c) {
  const nn::Model& model = fleet::cases::zoo()[c.model];
  Processor batched{c.config, model};
  Processor scalar{c.config, model};
  sys::testing::ScalarTasks::enable(scalar);
  int buffered = 0;
  for (std::size_t k = 0; k <= c.loads.size(); ++k) {
    const int slice = static_cast<int>(k);
    if (slice == c.override_from || slice == c.override_until) {
      const auto pin = slice == c.override_from
                           ? std::optional{sys::balanced_mram_split(batched.cost_model(),
                                                                    batched.total_weights())}
                           : std::nullopt;
      batched.set_placement_override(pin);
      scalar.set_placement_override(pin);
    }
    expect_identical(batched.run_slice(buffered), scalar.run_slice(buffered), k);
    ASSERT_EQ(state_bytes(batched), state_bytes(scalar)) << "slice " << k;
    buffered = k < c.loads.size() ? c.loads[k] : 0;
  }
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
    ProcessorCase c;
    c.config = fleet::cases::base_config();
    c.config.arch = arch;
    c.loads = mixed_loads();
    expect_batched_matches_scalar(c);
  }
}

TEST(BatchedExecution, MatchesScalarOnRandomCases) {
  SplitMix64 rng{0xba7c4ed2026ULL};
  for (int i = 0; i < 48; ++i) {
    const ProcessorCase c = fleet::cases::random_processor_case(rng);
    SCOPED_TRACE("case " + std::to_string(i) + " on " + c.config.arch.name);
    expect_batched_matches_scalar(c);
  }
}

TEST(ProcessorReset, ResetEqualsFreshConstruction) {
  const nn::Model model = nn::zoo::efficientnet_b0();
  placement::LutCache cache;
  SystemConfig config = fleet::cases::base_config();
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
  Processor proc{fleet::cases::base_config(), model};
  const RunStats first = proc.run_scenario({5, 2, 8});
  for (int i = 0; i < 3; ++i) {
    proc.reset();
    expect_identical(first, proc.run_scenario({5, 2, 8}));
  }
}

}  // namespace
}  // namespace hhpim
