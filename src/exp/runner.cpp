#include "exp/runner.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/threads.hpp"
#include "energy/ledger.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim::exp {

placement::LutCache* Runner::resolve_lut_cache() const {
  return options_.lut_cache != nullptr ? options_.lut_cache
                                       : &placement::LutCache::process_cache();
}

RunResult Runner::execute(const RunSpec& spec, bool keep_slices,
                          placement::LutCache* lut_cache, sys::ProcessorPool* pool) {
  sys::SystemConfig config = spec.config;
  if (config.lut_cache == nullptr) config.lut_cache = lut_cache;
  std::optional<sys::Processor> local;
  sys::ProcessorPool::Lease lease;
  if (pool != nullptr) lease = pool->checkout(config, spec.model);
  sys::Processor& proc =
      pool != nullptr ? lease.get() : local.emplace(config, spec.model);
  const sys::RunStats stats = proc.run_scenario(spec.loads);
  const energy::EnergyLedger& ledger = proc.ledger();

  RunResult r;
  r.index = spec.index;
  r.variant = spec.variant;
  r.arch = spec.arch;
  r.model = spec.model_name;
  r.scenario = spec.scenario;
  r.seed = spec.seed;
  r.slice_ps = proc.slice_length().as_ps();
  r.slices = static_cast<int>(stats.slices.size());
  r.tasks = stats.tasks;
  r.deadline_violations = stats.deadline_violations;
  r.total_energy_pj = stats.total_energy.as_pj();
  r.mean_slice_energy_pj = stats.mean_slice_energy().as_pj();
  r.dynamic_energy_pj = ledger.dynamic_total().as_pj();
  r.leakage_energy_pj = ledger.total(energy::Activity::kLeakage).as_pj();
  r.transfer_energy_pj = ledger.total(energy::Activity::kTransfer).as_pj();
  r.total_time_ps = stats.total_time.as_ps();
  for (const sys::SliceStats& s : stats.slices) {
    r.busy_time_ps += s.busy_time.as_ps();
    r.max_busy_ps = std::max(r.max_busy_ps, s.busy_time.as_ps());
    r.movement_time_ps += s.movement_time.as_ps();
    if (keep_slices) {
      SliceMetrics m;
      m.slice = s.slice;
      m.tasks = s.tasks_executed;
      m.busy_ps = s.busy_time.as_ps();
      m.movement_ps = s.movement_time.as_ps();
      m.energy_pj = s.energy.as_pj();
      m.deadline_violated = s.deadline_violated;
      r.slice_metrics.push_back(m);
    }
  }
  return r;
}

ResultSet Runner::run_all(std::vector<RunSpec> runs) const {
  std::vector<RunResult> results(runs.size());
  placement::LutCache* const lut_cache = resolve_lut_cache();
  sys::ProcessorPool pool;  // shared by all workers (checkout/return is thread-safe)
  // Each result lands at the run's *position* (not RunSpec::index, which
  // echoes the original grid coordinate and may be sparse when the caller
  // passes a filtered subset), so output order always matches input order
  // regardless of completion order.
  claim_each(runs.size(), resolve_workers(options_.threads, runs.size()),
             [&](unsigned, std::size_t i) {
               results[i] = execute(runs[i], options_.keep_slices, lut_cache, &pool);
             });
  return ResultSet{std::move(results)};
}

ResultSet Runner::run(const ExperimentSpec& spec) const {
  ResultSet rs = run_all(spec.expand());
  rs.experiment_name = spec.name;
  return rs;
}

}  // namespace hhpim::exp
