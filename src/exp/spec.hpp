// Declarative experiment grids.
//
// The paper's results (Tables I–VI, Figs. 4–6) are all cartesian grids of
// independent simulator runs: architecture × model × scenario (× optional
// SystemConfig variants such as a Vdd sweep). An ExperimentSpec describes
// such a grid once; expand() flattens it into self-contained RunSpecs that
// exp::Runner executes on a thread pool. Two properties make grids
// reproducible regardless of thread count or completion order:
//
//   * Seeds are derived deterministically from (spec.seed, scenario index,
//     scenario config) during single-threaded expansion, and the per-slice
//     load trace is materialized into each RunSpec up front — every
//     architecture in a cell sees byte-identical loads.
//   * When the grid contains HH-PIM and share_hhpim_slice is set (the
//     paper's protocol), expansion pins config.slice for every run of a
//     (variant, model) cell to the HH-PIM-derived slice length, so the slice
//     does not depend on which run happens to execute first.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hhpim/arch_config.hpp"
#include "hhpim/processor.hpp"
#include "nn/model.hpp"
#include "workload/scenario.hpp"

namespace hhpim::exp {

/// One scenario axis entry: either a named generator + config, or an
/// explicit load trace.
struct ScenarioSpec {
  std::string name;
  workload::Scenario kind = workload::Scenario::kLowConstant;
  workload::ScenarioConfig cfg;
  std::vector<int> explicit_loads;  ///< replayed as-is when is_fixed
  bool is_fixed = false;            ///< set by fixed(): replay explicit_loads
                                    ///< (even empty) instead of generating

  /// A generator-backed scenario (name defaults to workload::to_string).
  [[nodiscard]] static ScenarioSpec of(workload::Scenario kind,
                                       workload::ScenarioConfig cfg = {});
  /// An explicit trace under a caller-chosen name.
  [[nodiscard]] static ScenarioSpec fixed(std::string name, std::vector<int> loads);
};

/// One SystemConfig axis entry (e.g. a supply-voltage point of a design-space
/// sweep). The variant's arch/slice fields are overwritten per run.
struct ConfigVariant {
  std::string name;
  sys::SystemConfig config;
};

/// One fully resolved, independent run: everything a worker thread needs to
/// construct its own Processor and execute the scenario.
struct RunSpec {
  std::size_t index = 0;  ///< position in the expanded grid (result order)
  std::string variant;    ///< "" when the spec has no variant axis
  std::string arch;
  std::string model_name;
  std::string scenario;
  sys::SystemConfig config;  ///< arch + slice + overrides, fully resolved
  nn::Model model;
  std::vector<int> loads;    ///< materialized load trace
  std::uint64_t seed = 0;    ///< effective scenario seed for this run
};

/// The declarative grid. Axis order in the expansion is
/// variant (outer) → model → scenario → architecture (inner).
struct ExperimentSpec {
  std::string name = "experiment";
  std::vector<sys::ArchConfig> archs;
  std::vector<nn::Model> models;
  std::vector<ScenarioSpec> scenarios;
  std::vector<ConfigVariant> variants;  ///< empty = one unnamed default variant
  std::uint64_t seed = 0x5eed2025;      ///< grid seed; per-run seeds derive from it
  bool share_hhpim_slice = true;        ///< pin each cell to HH-PIM's T (paper protocol)

  /// Grid cardinality (variants × archs × models × scenarios). O(1).
  [[nodiscard]] std::size_t run_count() const;

  /// Flattens the grid. Throws std::invalid_argument on an empty axis or a
  /// scenario that fails to generate. Single-threaded and side-effect free
  /// (const; safe to call concurrently); each RunSpec carries a full copy
  /// of its model and loads, so the spec may be destroyed afterwards.
  /// O(run_count · (|model| + slices)) time and memory — for very large
  /// device populations use fleet::FleetSpec, which defers trace
  /// materialization to the workers.
  [[nodiscard]] std::vector<RunSpec> expand() const;
};

/// Deterministic seed mixing (SplitMix64 over the concatenated inputs);
/// exposed for tests. Pure function — equal inputs give the equal output on
/// every host, which is what makes per-run seeds reproducible.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t a,
                                        std::uint64_t b);

}  // namespace hhpim::exp
