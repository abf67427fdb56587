// Parallel experiment runner.
//
// Executes the independent RunSpecs of an expanded ExperimentSpec on a fixed
// pool of N worker threads (hhpim::claim_each: workers claim the next grid
// index from a shared atomic counter; never more workers than runs). Each
// run executes on a sys::Processor checked out of a pool shared by every
// worker (sys::ProcessorPool: a reset() Processor is bit-exchangeable for a
// fresh one, so repeated grid cells skip CostModel::build and cluster
// construction), and HH-PIM runs agreeing on (model topology, arch, cost
// model, slice, resolution) share one LUT build. Each RunResult lands at
// its run's position. Results are bit-identical regardless of thread count or completion order,
// and to execute() on a freshly constructed, uncached Processor per run
// (pinned by tests/test_lut_cache.cpp); only
// wall-clock changes.
//
// Thread safety: a Runner is immutable after construction — run()/run_all()
// may be called concurrently from multiple threads (each call spins up its
// own pool). The LutCache the options name must itself be thread-safe
// (placement::LutCache is) and outlive every call that uses it.
//
// Slice memo: each run walks its slices through a fleet::OutcomeCache of
// its own, the fleet's memo, keyed by the slice's load alone. A hit replays
// the slice's stored SliceStats fields and ledger posts without touching
// the processor; a miss restores the state (Processor::restore, unless the
// processor stands there) and runs OutcomeCache::run_exact, capturing the
// posts. Results match run_scenario on a fresh processor bit for bit (the
// grid half of tests/test_oracle.cpp), and the per-run memo's counts
// (RunResult::memo_exact/memo_replayed) do not depend on the thread count.
//
// Cost: per run, one exact slice (O(tasks/slice) simulation plus a
// save_state) per distinct (state, load) pair, and for every other slice
// one replay of its ledger posts, O(posts); memory is the run's distinct
// states and their outcomes, freed when the run ends. Plus one Processor
// construction per (config, model) overlap and one LUT build
// (O(t_entries · k_blocks) DP entries) per distinct HH-PIM key the cache
// does not already hold.
#pragma once

#include <vector>

#include "exp/result.hpp"
#include "exp/spec.hpp"
#include "hhpim/processor_pool.hpp"

namespace hhpim::placement {
class LutCache;  // placement/lut_cache.hpp — only a pointer is stored here
}

namespace hhpim::exp {

struct RunnerOptions {
  /// Worker threads. 0 = one per CPU the process may run on (hhpim::
  /// resolve_threads, which honours the affinity mask); 1 = run inline on
  /// the calling thread (no pool).
  unsigned threads = 0;
  /// Retain per-slice metrics in each RunResult (larger results/JSON).
  bool keep_slices = false;
  /// The placement-LUT cache the grid's runs share (not owned; must outlive
  /// the grid run). nullptr = the process-wide
  /// placement::LutCache::process_cache().
  placement::LutCache* lut_cache = nullptr;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {}) : options_(options) {}

  /// Expands and executes the grid. Propagates the exception of the failing
  /// run of the lowest index (all other runs still complete).
  [[nodiscard]] ResultSet run(const ExperimentSpec& spec) const;

  /// Executes pre-expanded runs (possibly a filtered subset of an expanded
  /// grid). Results are returned in the same order as `runs`; each
  /// RunResult::index echoes its RunSpec::index.
  [[nodiscard]] ResultSet run_all(std::vector<RunSpec> runs) const;

  /// Executes one run on the calling thread. Exposed for tests and for
  /// callers embedding single runs in their own loops. `lut_cache` (may be
  /// nullptr = uncached) is consulted unless the RunSpec's SystemConfig
  /// already names a cache of its own. `pool` (may be nullptr = construct a
  /// fresh Processor) supplies a reused Processor for the run's
  /// (config, model).
  [[nodiscard]] static RunResult execute(const RunSpec& spec, bool keep_slices = false,
                                         placement::LutCache* lut_cache = nullptr,
                                         sys::ProcessorPool* pool = nullptr);

  [[nodiscard]] const RunnerOptions& options() const { return options_; }
  /// The cache this runner's options resolve to (never null).
  [[nodiscard]] placement::LutCache* resolve_lut_cache() const;

 private:
  RunnerOptions options_;
};

}  // namespace hhpim::exp
