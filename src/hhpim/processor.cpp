#include "hhpim/processor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "common/serialize.hpp"
#include "common/state_visitor.hpp"
#include "riscv/rv_asm.hpp"

namespace hhpim::sys {

using energy::ClusterKind;
using energy::MemoryKind;
using placement::Allocation;
using placement::Space;

Energy RunStats::mean_slice_energy() const {
  if (slices.empty()) return Energy::zero();
  return total_energy / static_cast<double>(slices.size());
}

energy::PowerSpec resolved_power_spec(const SystemConfig& config) {
  return (config.power.has_value() ? *config.power : energy::PowerSpec::paper_45nm())
      .scaled(config.time_scale);
}

namespace {

// T = N_max * peak task time (paper: up to 10 inferences per slice at peak),
// plus the 1 % margin the paper reserves for runtime overheads (its optimizer
// budget is "1 % of each time slice"). Peak is the latency-balanced SRAM
// split. The single definition shared by the Processor constructor and
// derived_slice_length — the grid's slice-pinning invariant depends on the
// two agreeing exactly.
Time slice_from_cost(const placement::CostModel& cost, std::uint64_t weights,
                     int max_inferences_per_slice) {
  const Time peak = placement::task_time(cost, balanced_sram_split(cost, weights));
  return peak * static_cast<std::int64_t>(max_inferences_per_slice) * 1.01;
}

// The LUT build inputs of an HH-PIM Processor over `weights` with slice T.
placement::LutParams lut_params(const SystemConfig& config, std::uint64_t weights,
                                Time slice) {
  placement::LutParams lp;
  lp.slice = slice;
  lp.total_weights = weights;
  lp.t_entries = config.lut_t_entries;
  lp.k_blocks = config.lut_k_blocks;
  return lp;
}

}  // namespace

std::string default_host_program() {
  // Per-slice scheduler: a0 = n_tasks on entry. Persistent state lives at
  // 0x800 (last slice's load) and 0x804 (descriptor digest) — a pure
  // function of (previous state, n_tasks), which is exactly the contract
  // the saved processor state needs for memo replay to stay exact.
  return R"(
        li   s0, 0x800        # persistent scheduler state base
        lw   s1, 0(s0)        # tasks dispatched last slice
        li   t0, 0            # task index
        li   t1, 0            # descriptor accumulator
loop:
        beq  t0, a0, done
        # per-task dispatch bookkeeping: fold the task index and last
        # slice's load into a descriptor word (queue address arithmetic)
        mul  t2, t0, s1
        slli t3, t0, 2
        add  t2, t2, t3
        xor  t1, t1, t2
        addi t0, t0, 1
        j    loop
done:
        sw   a0, 0(s0)        # remember this slice's load
        sw   t1, 4(s0)        # and the dispatch digest
        ecall
)";
}

/// Host co-simulation state. `image` is the full initial RAM content so
/// reset() restores construction state exactly; the engine's block cache is
/// cleared whenever RAM is rewritten behind the Bus (reset, load_state).
struct Processor::HostState {
  riscv::Ram ram;
  riscv::Bus bus;
  riscv::BlockEngine engine;
  std::vector<std::uint8_t> image;
  energy::ComponentId component;
  Power active_power = Power::mw(0.0);
  Time cycle_period = Time::zero();

  HostState(std::uint32_t ram_bytes, riscv::CycleModel cycles)
      : ram(ram_bytes), engine(&bus, 0, cycles) {
    bus.map(0, ram_bytes, &ram);
  }
};

Time derived_slice_length(const SystemConfig& config, const nn::Model& model) {
  if (config.slice > Time::zero()) return config.slice;
  const auto cost =
      placement::CostModel::build(resolved_power_spec(config), config.arch.hp_shape(),
                                  config.arch.lp_shape(), model.uses_per_weight());
  return slice_from_cost(cost, model.effective_params(), config.max_inferences_per_slice);
}

placement::LutCacheKey lut_cache_key(const SystemConfig& config, const nn::Model& model) {
  const auto cost =
      placement::CostModel::build(resolved_power_spec(config), config.arch.hp_shape(),
                                  config.arch.lp_shape(), model.uses_per_weight());
  return placement::LutCacheKey::make(
      model.topology_hash(), config.arch.config_hash(), cost,
      lut_params(config, model.effective_params(), derived_slice_length(config, model)));
}

Processor::Processor(const SystemConfig& config, const nn::Model& model)
    : config_(config),
      spec_(resolved_power_spec(config)),
      weights_(model.effective_params()),
      pim_macs_(model.pim_macs()),
      cost_(placement::CostModel::build(spec_, config.arch.hp_shape(),
                                        config.arch.lp_shape(), model.uses_per_weight())) {
  const ArchConfig& arch = config_.arch;

  if (arch.hp_modules > 0) {
    pim::ClusterConfig cc;
    cc.name = "hp";
    cc.kind = ClusterKind::kHighPerformance;
    cc.module_count = arch.hp_modules;
    cc.mram_bytes_per_module = arch.mram_kb_per_module * 1024;
    cc.sram_bytes_per_module = arch.sram_kb_per_module * 1024;
    hp_.emplace(cc, spec_, &ledger_);
  }
  if (arch.lp_modules > 0) {
    pim::ClusterConfig cc;
    cc.name = "lp";
    cc.kind = ClusterKind::kLowPower;
    cc.module_count = arch.lp_modules;
    cc.mram_bytes_per_module = arch.mram_kb_per_module * 1024;
    cc.sram_bytes_per_module = arch.sram_kb_per_module * 1024;
    lp_.emplace(cc, spec_, &ledger_);
  }

  pim::DataAllocatorConfig xc;
  xc.name = "xcluster";
  xc.bytes_per_ns_per_module = config_.movement.bytes_per_ns_per_module;
  xc.interface_latency = config_.movement.interface_latency;
  xc.energy_per_byte = config_.movement.energy_per_byte;
  const std::size_t lanes = std::max<std::size_t>(
      1, std::min(arch.hp_modules == 0 ? arch.lp_modules : arch.hp_modules,
                  arch.lp_modules == 0 ? arch.hp_modules : arch.lp_modules));
  xfer_ = std::make_unique<pim::DataAllocator>(xc, lanes, &ledger_);

  slice_ = config_.slice > Time::zero()
               ? config_.slice
               : slice_from_cost(cost_, weights_, config_.max_inferences_per_slice);

  // Placement policy per architecture.
  switch (arch.kind) {
    case ArchKind::kBaseline: {
      Allocation a;
      a[Space::kHpSram] = weights_;
      if (!placement::fits(cost_, a)) {
        throw std::invalid_argument("Baseline-PIM: model does not fit in SRAM");
      }
      policy_ = std::make_unique<StaticPolicy>(a, slice_);
      break;
    }
    case ArchKind::kHetero: {
      const Allocation a = balanced_sram_split(cost_, weights_);
      policy_ = std::make_unique<StaticPolicy>(a, slice_);
      break;
    }
    case ArchKind::kHybrid: {
      Allocation a;
      a[Space::kHpMram] = weights_;
      if (!placement::fits(cost_, a)) {
        throw std::invalid_argument("Hybrid-PIM: model does not fit in MRAM");
      }
      policy_ = std::make_unique<StaticPolicy>(a, slice_);
      break;
    }
    case ArchKind::kHhpim: {
      const placement::LutParams lp = lut_params(config_, weights_, slice_);
      std::shared_ptr<const placement::AllocationLut> lut;
      if (config_.lut_cache != nullptr) {
        // Shared path: identical (model topology, arch, cost model, slice,
        // resolution) keys resolve to one LUT built once per process.
        lut = config_.lut_cache->get_or_build(lut_cache_key(config_, model), cost_, lp);
      } else {
        lut = std::make_shared<const placement::AllocationLut>(
            placement::AllocationLut::build(cost_, lp));
      }
      auto policy = std::make_unique<DynamicLutPolicy>(std::move(lut), cost_,
                                                       config_.movement);
      lut_view_ = &policy->lut();
      policy_ = std::move(policy);
      break;
    }
  }

  // Initial deployment: weights appear in their initial residency. The
  // one-time provisioning cost (identical for all architectures) is not
  // charged, matching the paper's steady-state measurements.
  current_ = policy_->initial();
  apply_residency(current_);

  if (config_.host.enabled) {
    const HostConfig& hc = config_.host;
    if (hc.ram_bytes < 64 || (hc.ram_bytes & 3u) != 0) {
      throw std::invalid_argument("host: ram_bytes must be >= 64 and 4-aligned");
    }
    host_ = std::make_unique<HostState>(hc.ram_bytes, hc.cycles);
    const std::string source =
        hc.program.empty() ? default_host_program() : hc.program;
    const riscv::RvAsmResult assembled = riscv::assemble_rv32(source, 0);
    if (const auto* err = std::get_if<riscv::RvAsmError>(&assembled)) {
      throw std::invalid_argument("host program, line " +
                                  std::to_string(err->line) + ": " +
                                  err->message);
    }
    const auto& words = std::get<std::vector<std::uint32_t>>(assembled);
    if (words.size() * 4 > hc.ram_bytes) {
      throw std::invalid_argument("host program does not fit in host RAM");
    }
    host_->image.assign(hc.ram_bytes, 0);
    for (std::size_t i = 0; i < words.size(); ++i) {
      for (unsigned b = 0; b < 4; ++b) {
        host_->image[i * 4 + b] =
            static_cast<std::uint8_t>(words[i] >> (8 * b));
      }
    }
    host_->ram.load_image(0, host_->image.data(), host_->image.size());
    host_->component = ledger_.register_component("host");
    host_->active_power = spec_.hp.pe.dynamic * hc.power_scale;
    host_->cycle_period = Frequency::ghz(hc.clock_ghz).period();
    if (host_->cycle_period <= Time::zero()) {
      throw std::invalid_argument("host: clock_ghz must be positive");
    }
  }
}

Processor::~Processor() = default;

const placement::AllocationLut* Processor::lut() const { return lut_view_; }

pim::Cluster* Processor::cluster_of(Space s) {
  const bool hp = placement::cluster_of(s) == ClusterKind::kHighPerformance;
  if (hp) return hp_.has_value() ? &*hp_ : nullptr;
  return lp_.has_value() ? &*lp_ : nullptr;
}

Time Processor::peak_task_time() const {
  // Fastest placement: latency-balanced across the SRAMs of both clusters
  // (weights may live in SRAM at peak — the core HH-PIM capability).
  const Allocation a = balanced_sram_split(cost_, weights_);
  return placement::task_time(cost_, a);
}

Time Processor::mram_only_task_time() const {
  if (config_.arch.mram_kb_per_module == 0) return Time::zero();
  // Balanced across the MRAM of both clusters (or all in HP-MRAM when there
  // is no LP cluster).
  return placement::task_time(cost_, balanced_mram_split(cost_, weights_));
}

void Processor::apply_residency(const Allocation& alloc) {
  for (const Space s : placement::all_spaces()) {
    pim::Cluster* c = cluster_of(s);
    if (c == nullptr) continue;
    if (placement::memory_of(s) == MemoryKind::kMram &&
        config_.arch.mram_kb_per_module == 0) {
      continue;
    }
    c->distribute_resident(placement::memory_of(s), alloc[s], now_);
  }
}

void Processor::apply_movement(const placement::MovementPlan& plan) {
  std::vector<pim::TransferRequest> requests;
  for (std::size_t src = 0; src < placement::kSpaceCount; ++src) {
    for (std::size_t dst = 0; dst < placement::kSpaceCount; ++dst) {
      const std::uint64_t w = plan.moved[src][dst];
      if (w == 0) continue;
      const Space s = static_cast<Space>(src);
      const Space d = static_cast<Space>(dst);
      pim::Cluster* cs = cluster_of(s);
      pim::Cluster* cd = cluster_of(d);
      if (cs == nullptr || cd == nullptr) {
        throw std::logic_error("movement through a non-existent cluster");
      }
      // Split the stream across module lanes.
      const std::size_t lanes = std::min(cs->module_count(), cd->module_count());
      const std::uint64_t base = w / lanes;
      const std::uint64_t extra = w % lanes;
      for (std::size_t i = 0; i < lanes; ++i) {
        const std::uint64_t share = base + (i < extra ? 1 : 0);
        if (share == 0) continue;
        pim::TransferRequest r;
        r.src = &cs->module(i);
        r.src_mem = placement::memory_of(s);
        r.dst = cs == cd ? &cd->module(i) : &cd->module(i % cd->module_count());
        r.dst_mem = placement::memory_of(d);
        r.weights = share;
        requests.push_back(r);
      }
    }
  }
  if (!requests.empty()) xfer_->execute(now_, requests);
}

bool Processor::task_shares(
    std::array<std::uint64_t, placement::kSpaceCount>& macs) const {
  const std::uint64_t total = current_.total();
  if (total == 0 || pim_macs_ == 0) return false;

  // Proportional split with largest-remainder correction: per-space llround
  // can leave the shares summing to pim_macs_ ± a few; the residue lands on
  // the largest share (first such space on ties), so every task computes
  // exactly pim_macs_ MACs regardless of the placement's granularity.
  std::uint64_t assigned = 0;
  std::size_t largest = placement::kSpaceCount;
  for (std::size_t i = 0; i < placement::kSpaceCount; ++i) {
    const std::uint64_t w = current_.weights[i];
    macs[i] = w == 0 ? 0
                     : static_cast<std::uint64_t>(std::llround(
                           static_cast<double>(pim_macs_) * static_cast<double>(w) /
                           static_cast<double>(total)));
    assigned += macs[i];
    // Residue target: the largest share; if every share rounded to zero
    // (pim_macs_ < number of occupied spaces), the most-weighted space.
    if (w > 0 && (largest == placement::kSpaceCount || macs[i] > macs[largest] ||
                  (macs[i] == macs[largest] &&
                   macs[largest] == 0 && w > current_.weights[largest]))) {
      largest = i;
    }
  }
  if (largest != placement::kSpaceCount && assigned != pim_macs_) {
    // |residue| is at most kSpaceCount/2 MACs; a negative residue can exceed
    // the largest share only when pim_macs_ is single-digit, so drain
    // whichever share is currently largest until balanced.
    std::int64_t residue = static_cast<std::int64_t>(pim_macs_) -
                           static_cast<std::int64_t>(assigned);
    if (residue > 0) {
      macs[largest] += static_cast<std::uint64_t>(residue);
    } else {
      while (residue < 0) {
        std::size_t big = 0;
        for (std::size_t i = 1; i < placement::kSpaceCount; ++i) {
          if (macs[i] > macs[big]) big = i;
        }
        if (macs[big] == 0) break;
        const std::uint64_t take =
            std::min(macs[big], static_cast<std::uint64_t>(-residue));
        macs[big] -= take;
        residue += static_cast<std::int64_t>(take);
      }
    }
  }
  return true;
}

Time Processor::run_task(
    Time start, const std::array<std::uint64_t, placement::kSpaceCount>& macs) {
  Time done = start;
  for (const Space s : placement::all_spaces()) {
    const std::uint64_t m = macs[static_cast<std::size_t>(s)];
    if (m == 0) continue;
    pim::Cluster* c = cluster_of(s);
    if (c == nullptr) continue;
    // compute() starts each module at max(start, module busy) — the MRAM and
    // SRAM shares of a module serialize automatically.
    done = std::max(done, c->compute(start, placement::memory_of(s), m));
  }
  return done;
}

Time Processor::run_tasks_batched(Time cursor, int n_tasks) {
  if (n_tasks <= 0) return cursor;
  std::array<std::uint64_t, placement::kSpaceCount> macs{};
  if (!task_shares(macs)) return cursor;

  if (scalar_tasks_ || n_tasks < 3) {
    for (int i = 0; i < n_tasks; ++i) cursor = run_task(cursor, macs);
    return cursor;
  }

  // Steady-state replay. Task 1 absorbs whatever power-window and
  // busy-time state the slice boundary (movement, residency flips) left
  // behind; from task 2 on, every task advances the system by an identical
  // period with identical energy posts and integer-state deltas. Record
  // task 2, then replay it (n - 2) times — bit-identical to the scalar
  // loop (pinned by tests/test_batched.cpp). A module the placement leaves
  // idle has a zero delta, and fast-forwarding it by zero is a no-op, so
  // single-space placements (Baseline, Hybrid) take this path unchanged.
  cursor = run_task(cursor, macs);

  probe_.clear();
  if (hp_.has_value()) {
    for (std::size_t i = 0; i < hp_->module_count(); ++i) {
      probe_.push_back(hp_->module(i).counters());
    }
  }
  if (lp_.has_value()) {
    for (std::size_t i = 0; i < lp_->module_count(); ++i) {
      probe_.push_back(lp_->module(i).counters());
    }
  }

  replay_posts_.clear();
  const Time c1 = cursor;
  ledger_.begin_recording(&replay_posts_);
  cursor = run_task(cursor, macs);
  ledger_.end_recording();
  const Time period = cursor - c1;

  const int repeats = n_tasks - 2;
  ledger_.replay(replay_posts_, repeats);
  std::size_t pi = 0;
  if (hp_.has_value()) {
    for (std::size_t i = 0; i < hp_->module_count(); ++i, ++pi) {
      pim::PimModule& mod = hp_->module(i);
      mod.fast_forward(pim::ModuleCounters::delta(probe_[pi], mod.counters()),
                       repeats);
    }
  }
  if (lp_.has_value()) {
    for (std::size_t i = 0; i < lp_->module_count(); ++i, ++pi) {
      pim::PimModule& mod = lp_->module(i);
      mod.fast_forward(pim::ModuleCounters::delta(probe_[pi], mod.counters()),
                       repeats);
    }
  }
  return cursor + period * static_cast<std::int64_t>(repeats);
}

void Processor::set_placement_override(
    const std::optional<placement::Allocation>& alloc) {
  if (alloc.has_value()) {
    if (alloc->total() != weights_) {
      throw std::invalid_argument(
          "set_placement_override: allocation must place every weight");
    }
    if (!placement::fits(cost_, *alloc)) {
      throw std::invalid_argument(
          "set_placement_override: allocation exceeds capacity");
    }
  }
  override_ = alloc;
}

// A pinned (override) placement decided exactly like a static policy would:
// move whatever differs from the current residency, charge the estimated
// movement against the slice budget, and report infeasibility if the pinned
// placement cannot serve the load within T.
SliceDecision Processor::decide_override(const placement::Allocation& target,
                                         int n_tasks) const {
  SliceDecision d;
  d.alloc = target;
  d.plan = placement::plan_movement(current_, target);
  const auto cost = placement::estimate_movement(cost_, d.plan, config_.movement);
  d.movement_time = cost.time;
  d.movement_energy = cost.energy;
  const Time budget = slice_ - cost.time;
  d.t_constraint = n_tasks > 0
                       ? (budget > Time::zero() ? budget / n_tasks : Time::ps(1))
                       : slice_;
  d.feasible = n_tasks == 0 ||
               placement::task_time(cost_, target) <= d.t_constraint;
  return d;
}

SliceStats Processor::run_slice(int n_tasks) {
  const Time slice_start = now_;
  const Time slice_end = slice_start + slice_;
  // Slice energy is read from the ledger's window, not as a delta of the
  // cumulative totals: the window sums this slice's posts from zero, so the
  // reported bits depend only on the slice's own behavior — never on how
  // much energy the run accumulated before it. The fleet's device-outcome
  // memo replays slices across devices with different histories and relies
  // on exactly that (fleet/outcome_cache.hpp).
  ledger_.begin_window();

  const SliceDecision d = override_.has_value()
                              ? decide_override(*override_, n_tasks)
                              : policy_->decide(current_, n_tasks);
  if (!(d.alloc == current_) && d.plan.total() > 0) {
    apply_movement(d.plan);
    // Residency flips after the data lands.
    apply_residency(d.alloc);
    current_ = d.alloc;
  } else if (!(d.alloc == current_)) {
    apply_residency(d.alloc);
    current_ = d.alloc;
  }

  Time cursor = std::max(now_, hp_.has_value() ? hp_->busy_until() : Time::zero());
  if (lp_.has_value()) cursor = std::max(cursor, lp_->busy_until());

  cursor = run_tasks_batched(cursor, n_tasks);

  // The host scheduler runs once per slice, inside the ledger window so its
  // energy lands in this slice's bits (always after the task batch and
  // before settle — the window sum order is part of the byte contract).
  const std::uint64_t host_cycles =
      host_ != nullptr ? run_host_slice(n_tasks) : 0;

  SliceStats stats;
  stats.slice = slice_index_++;
  stats.tasks_executed = n_tasks;
  stats.alloc = current_;
  stats.movement_time = d.movement_time;
  stats.busy_time = cursor - slice_start;
  stats.deadline_violated = cursor > slice_end;
  stats.host_cycles = host_cycles;

  // The slice boundary: close leakage windows so the slice's energy is
  // attributed to it, then advance the clock.
  now_ = std::max(slice_end, cursor);
  if (hp_.has_value()) hp_->settle(now_);
  if (lp_.has_value()) lp_->settle(now_);
  stats.energy = ledger_.window_total();
  return stats;
}

SliceStats Processor::run_slice(int n_tasks, energy::PostLog& posts) {
  // Ends the capture on every exit: a throwing slice must not leave the
  // ledger appending to the caller's log.
  struct EndCapture {
    energy::EnergyLedger& ledger;
    ~EndCapture() { ledger.end_capture(); }
  };
  ledger_.begin_capture(&posts);
  const EndCapture end{ledger_};
  return run_slice(n_tasks);
}

std::uint64_t Processor::run_host_slice(int n_tasks) {
  riscv::BlockEngine& e = host_->engine;
  const std::uint64_t before = e.cycles();
  // Fresh register file each slice (persistent scheduler state lives in host
  // RAM, never in registers): sp at the top of RAM, a0 carries the load.
  for (unsigned i = 1; i < 32; ++i) e.set_reg(i, 0);
  e.set_reg(2, static_cast<std::uint32_t>(host_->ram.size()));
  e.set_reg(10, static_cast<std::uint32_t>(n_tasks));
  e.resume(0);
  e.run(config_.host.max_steps_per_slice);
  if (e.halt_reason() != riscv::HaltReason::kEcall) {
    throw std::runtime_error(
        std::string("host scheduler halted with ") +
        riscv::to_string(e.halt_reason()) + " at pc 0x" +
        std::to_string(e.pc()) + " (expected ecall)");
  }
  const std::uint64_t cycles = e.cycles() - before;
  ledger_.add(host_->component, energy::Activity::kControl,
              host_->active_power *
                  (host_->cycle_period * static_cast<std::int64_t>(cycles)));
  return cycles;
}

RunStats Processor::run_scenario(const std::vector<int>& loads) {
  RunStats run;
  const Energy before = ledger_.total();
  const Time t0 = now_;

  // Slice k executes the inferences that arrived in slice k-1; one trailing
  // slice drains the last arrivals.
  int buffered = 0;
  for (std::size_t k = 0; k <= loads.size(); ++k) {
    const int arriving = k < loads.size() ? loads[k] : 0;
    SliceStats s = run_slice(buffered);
    run.tasks += static_cast<std::uint64_t>(s.tasks_executed);
    run.deadline_violations += s.deadline_violated ? 1 : 0;
    run.slices.push_back(std::move(s));
    buffered = arriving;
  }
  run.total_energy = ledger_.total() - before;
  run.total_time = now_ - t0;
  return run;
}

void Processor::reset() {
  // Order matters only in that tracker resets must not post to the ledger
  // (they don't — reset() zeroes state directly), so zeroing the ledger
  // first or last is equivalent. Component registrations persist; only the
  // accumulators clear, exactly matching a fresh construction's ledger.
  ledger_.reset();
  if (hp_.has_value()) hp_->reset_accounting();
  if (lp_.has_value()) lp_->reset_accounting();
  xfer_->reset_accounting();
  override_.reset();
  now_ = Time::zero();
  slice_index_ = 0;
  // Re-run the constructor's initial deployment: the policy's initial
  // placement appears in residency uncharged (steady-state measurement
  // convention; see the constructor).
  current_ = policy_->initial();
  apply_residency(current_);
  if (host_ != nullptr) {
    // Restore the initial RAM image and drop compiled blocks: the rewrite
    // bypasses the Bus, so the engine cannot see it. Registers need no
    // reset — run_host_slice re-arms them every slice.
    host_->ram.load_image(0, host_->image.data(), host_->image.size());
    host_->engine.clear_cache();
  }
}

template <class V>
void Processor::visit_state(V& v, Time now) {
  for (std::uint64_t& w : current_.weights) v.count(w);
  bool pinned = override_.has_value();
  v.flag(pinned);
  if constexpr (V::kLoad) {
    if (pinned) {
      override_.emplace();
    } else {
      override_.reset();
    }
  }
  if (pinned) {
    for (std::uint64_t& w : override_->weights) v.count(w);
  }
  v.shape(hp_.has_value() ? 1 : 0, "HP-cluster presence", "processor");
  if (hp_.has_value()) hp_->visit_state(v, now);
  v.shape(lp_.has_value() ? 1 : 0, "LP-cluster presence", "processor");
  if (lp_.has_value()) lp_->visit_state(v, now);
  xfer_->visit_state(v, now);
  // Host RAM is the scheduler's persistent state (registers are re-armed
  // per slice, the block cache is wall-clock-only). Visited only when the
  // host exists — the reuse key pins its presence — so feature-off blobs
  // match pre-feature builds.
  if (host_ != nullptr) {
    v.bytes({host_->ram.data(), host_->ram.size()}, "host RAM size", "processor");
    if constexpr (V::kLoad) host_->engine.clear_cache();  // RAM rewritten behind the Bus
  }
}

void Processor::save_state(ByteWriter& w) const {
  StateSaver s{w};
  const_cast<Processor*>(this)->visit_state(s, now_);  // read-only visitor
}

void Processor::load_state(ByteReader& r) {
  // The stored times are relative to the snapshot's slice boundary; the
  // clock rebases to zero.
  now_ = Time::zero();
  StateLoader l{r};
  visit_state(l, now_);
}

void Processor::restore(std::string_view blob) {
  reset();
  ByteReader r{blob};
  load_state(r);
  if (!r.at_end()) {
    throw std::runtime_error("processor state blob has " + std::to_string(r.remaining()) +
                             " trailing bytes");
  }
}

std::uint64_t processor_reuse_key(const SystemConfig& config,
                                  const nn::Model& model) {
  Fnv1a h;
  h.add(config.arch.config_hash())
      .add(model.topology_hash())
      .add(model.effective_params())
      .add(model.pim_macs())
      .add(model.uses_per_weight());
  // The resolved spec folds `power` and `time_scale` together — two configs
  // resolving to the same effective hardware are exchangeable.
  const energy::PowerSpec spec = resolved_power_spec(config);
  const auto add_module = [&h](const energy::ModuleSpec& m) {
    h.add(m.vdd)
        .add(m.mram_timing.read.as_ps())
        .add(m.mram_timing.write.as_ps())
        .add(m.sram_timing.read.as_ps())
        .add(m.sram_timing.write.as_ps())
        .add(m.mram_power.dyn_read.as_mw())
        .add(m.mram_power.dyn_write.as_mw())
        .add(m.mram_power.leakage.as_mw())
        .add(m.sram_power.dyn_read.as_mw())
        .add(m.sram_power.dyn_write.as_mw())
        .add(m.sram_power.leakage.as_mw())
        .add(m.pe.mac_latency.as_ps())
        .add(m.pe.dynamic.as_mw())
        .add(m.pe.leakage.as_mw());
  };
  add_module(spec.hp);
  add_module(spec.lp);
  h.add(config.max_inferences_per_slice)
      .add(config.slice.as_ps())
      .add(config.lut_t_entries)
      .add(config.lut_k_blocks)
      .add(static_cast<std::uint64_t>(
          reinterpret_cast<std::uintptr_t>(config.lut_cache)))
      .add(config.movement.bytes_per_ns_per_module)
      .add(config.movement.interface_latency.as_ps())
      .add(config.movement.energy_per_byte.as_pj());
  // Host fields fold in only when the host is enabled, so feature-off keys
  // (and everything derived from them — FleetSpec::content_digest, snapshot
  // compatibility) are unchanged from pre-feature builds.
  if (config.host.enabled) {
    const HostConfig& hc = config.host;
    const std::string source =
        hc.program.empty() ? default_host_program() : hc.program;
    h.add(static_cast<std::uint64_t>(0x74736f68u));  // "host" marker
    h.add_bytes(source.data(), source.size());
    h.add(static_cast<std::uint64_t>(hc.ram_bytes))
        .add(hc.clock_ghz)
        .add(hc.power_scale)
        .add(static_cast<std::uint64_t>(hc.cycles.alu))
        .add(static_cast<std::uint64_t>(hc.cycles.mul))
        .add(static_cast<std::uint64_t>(hc.cycles.div))
        .add(static_cast<std::uint64_t>(hc.cycles.load))
        .add(static_cast<std::uint64_t>(hc.cycles.store))
        .add(static_cast<std::uint64_t>(hc.cycles.branch))
        .add(static_cast<std::uint64_t>(hc.cycles.jump))
        .add(static_cast<std::uint64_t>(hc.cycles.system))
        .add(hc.max_steps_per_slice);
  }
  return h.digest();
}

Inventory Processor::inventory() const {
  Inventory inv;
  inv.hp_modules = config_.arch.hp_modules;
  inv.lp_modules = config_.arch.lp_modules;
  const std::size_t total = inv.hp_modules + inv.lp_modules;
  inv.mram_banks = config_.arch.mram_kb_per_module > 0 ? total : 0;
  inv.sram_banks = total;
  inv.pes = total;
  inv.controllers = (hp_.has_value() ? 1 : 0) + (lp_.has_value() ? 1 : 0);
  inv.mram_bytes = static_cast<std::uint64_t>(inv.mram_banks) *
                   config_.arch.mram_kb_per_module * 1024;
  inv.sram_bytes = static_cast<std::uint64_t>(inv.sram_banks) *
                   config_.arch.sram_kb_per_module * 1024;
  return inv;
}

}  // namespace hhpim::sys
