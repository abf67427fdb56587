// Typed experiment results and their JSON/CSV serialization.
//
// A ResultSet holds one RunResult per RunSpec, in grid (index) order — never
// completion order — so serializing the same spec twice yields byte-identical
// output whatever the runner's thread count was.
//
// Units follow the field suffixes throughout: *_ps are integer picoseconds,
// *_pj are double picojoules (the common/units.hpp conventions). A ResultSet
// is immutable in practice (the runner returns it fully built); const access
// from multiple threads is safe, mutation is not synchronized.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace hhpim::exp {

/// Per-slice measurement echo (subset of sys::SliceStats that serializes).
struct SliceMetrics {
  int slice = 0;
  int tasks = 0;
  std::int64_t busy_ps = 0;
  std::int64_t movement_ps = 0;
  double energy_pj = 0.0;
  bool deadline_violated = false;
};

/// All metrics of one grid run.
struct RunResult {
  // Identity (mirrors RunSpec).
  std::size_t index = 0;
  std::string variant, arch, model, scenario;
  std::uint64_t seed = 0;

  // Configuration echoes.
  std::int64_t slice_ps = 0;  ///< the slice length T the run used
  int slices = 0;             ///< number of slices executed (incl. drain)

  // Aggregate metrics.
  std::uint64_t tasks = 0;
  std::uint64_t deadline_violations = 0;
  double total_energy_pj = 0.0;
  double mean_slice_energy_pj = 0.0;
  double dynamic_energy_pj = 0.0;
  double leakage_energy_pj = 0.0;
  double transfer_energy_pj = 0.0;
  std::int64_t total_time_ps = 0;
  std::int64_t busy_time_ps = 0;      ///< sum of per-slice busy times
  std::int64_t max_busy_ps = 0;       ///< worst slice
  std::int64_t movement_time_ps = 0;  ///< sum of per-slice movement overheads

  std::vector<SliceMetrics> slice_metrics;  ///< filled when keep_slices is set

  // How the run's slice memo served its slices (exp::Runner::execute);
  // memo_exact + memo_replayed == slices. Not serialized: the JSON and CSV
  // bytes are the same whatever the memo did.
  std::uint64_t memo_exact = 0;     ///< slices the processor ran
  std::uint64_t memo_replayed = 0;  ///< slices replayed from the memo

  [[nodiscard]] Energy total_energy() const { return Energy::pj(total_energy_pj); }
  [[nodiscard]] Time total_time() const { return Time::ps(total_time_ps); }
};

class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(std::vector<RunResult> runs) : runs_(std::move(runs)) {}

  [[nodiscard]] const std::vector<RunResult>& runs() const { return runs_; }
  [[nodiscard]] std::size_t size() const { return runs_.size(); }

  /// The run matching (arch, model, scenario[, variant]); throws
  /// std::out_of_range if absent. Linear scan — O(size()); fine for paper
  /// grids (dozens of runs), use runs()[index] when the grid index is known.
  [[nodiscard]] const RunResult& at(const std::string& arch, const std::string& model,
                                    const std::string& scenario,
                                    const std::string& variant = "") const;
  /// Like at(), but returns nullptr when absent. O(size()).
  [[nodiscard]] const RunResult* find(const std::string& arch, const std::string& model,
                                      const std::string& scenario,
                                      const std::string& variant = "") const;

  /// JSON: {"experiment": name, "runs": [{...}, ...]}. Deterministic byte
  /// output for equal inputs. Per-slice metrics are emitted only when
  /// `include_slices` (and only for runs that retained them).
  void write_json(std::ostream& os, bool include_slices = false) const;
  [[nodiscard]] std::string to_json(bool include_slices = false) const;

  /// The runs' memo counts summed (RunResult::memo_exact/memo_replayed).
  /// The memo lives for one run, so they do not depend on thread count.
  struct MemoCounts {
    std::uint64_t exact = 0;
    std::uint64_t replayed = 0;
  };
  [[nodiscard]] MemoCounts memo_counts() const;

  /// CSV: one header row, then one row per run (aggregates only).
  void write_csv(std::ostream& os) const;
  [[nodiscard]] std::string to_csv() const;

  std::string experiment_name = "experiment";

 private:
  std::vector<RunResult> runs_;
};

}  // namespace hhpim::exp
