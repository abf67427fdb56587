#include "exp/runner.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "common/threads.hpp"
#include "energy/ledger.hpp"
#include "fleet/outcome_cache.hpp"
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
  const std::uint64_t machine = sys::processor_reuse_key(config, spec.model);
  std::optional<sys::Processor> local;
  sys::ProcessorPool::Lease lease;
  if (pool != nullptr) lease = pool->checkout(machine, config, spec.model);
  sys::Processor& proc =
      pool != nullptr ? lease.get() : local.emplace(config, spec.model);

  RunResult r;
  r.index = spec.index;
  r.variant = spec.variant;
  r.arch = spec.arch;
  r.model = spec.model_name;
  r.scenario = spec.scenario;
  r.seed = spec.seed;
  r.slice_ps = proc.slice_length().as_ps();
  r.slices = static_cast<int>(spec.loads.size()) + 1;

  // Processor::run_scenario, walked slice by slice through the run's memo:
  // slice k executes the inferences that arrived in slice k-1, and one
  // trailing slice drains the last arrivals. A hit adds the stored posts to
  // the run's own cells; a miss makes the processor live at the current
  // state and runs the memo's exact step. The cells see every post in run
  // order, so they end bit-identical to the ledger of an uninterrupted run.
  fleet::OutcomeCache memo;
  std::vector<double> cells(proc.ledger().cell_count(), 0.0);
  energy::PostLog captured;  // a miss's posts (the memo keeps a copy)
  ByteWriter save;
  proc.save_state(save);
  const fleet::State* state = &memo.intern(machine, save.bytes());
  const fleet::State* live = state;  // the state the processor stands at
  int buffered = 0;
  for (std::size_t k = 0; k <= spec.loads.size(); ++k) {
    const fleet::SliceKey key{.n_tasks = static_cast<std::uint32_t>(buffered)};
    const fleet::SliceOutcome* out = state->find(key);
    if (out != nullptr) {
      ++r.memo_replayed;
    } else {
      ++r.memo_exact;
      if (live != state) proc.restore(*state->blob());
      out = &memo.run_exact(*state, key, proc, save, &captured);
      live = out->next;
    }
    energy::EnergyLedger::apply(cells, *out->posts);
    r.tasks += static_cast<std::uint64_t>(buffered);
    r.deadline_violations += out->deadline_violated ? 1 : 0;
    r.total_time_ps += std::max(r.slice_ps, out->busy_ps);
    r.busy_time_ps += out->busy_ps;
    r.max_busy_ps = std::max(r.max_busy_ps, out->busy_ps);
    r.movement_time_ps += out->movement_ps;
    if (keep_slices) {
      // The label is the walk position: a restored processor numbers its
      // slices from 0.
      r.slice_metrics.push_back({static_cast<int>(k), buffered, out->busy_ps,
                                 out->movement_ps, out->energy_pj,
                                 out->deadline_violated});
    }
    state = out->next;
    buffered = k < spec.loads.size() ? spec.loads[k] : 0;
  }

  const Energy total = energy::EnergyLedger::cells_total(cells);
  const Energy leakage = energy::EnergyLedger::cells_total(cells, energy::Activity::kLeakage);
  r.total_energy_pj = total.as_pj();
  r.mean_slice_energy_pj = (total / static_cast<double>(r.slices)).as_pj();
  r.dynamic_energy_pj = (total - leakage).as_pj();
  r.leakage_energy_pj = leakage.as_pj();
  r.transfer_energy_pj =
      energy::EnergyLedger::cells_total(cells, energy::Activity::kTransfer).as_pj();
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
