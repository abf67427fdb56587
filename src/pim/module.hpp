// One PIM module: MRAM bank + SRAM bank + PE + interface (Fig. 1).
//
// The module executes weight-streaming compute bursts: per MAC, the LOAD
// state fetches one int8 weight from the selected memory and the EXECUTE
// state runs one MAC — serialized, so a burst of n MACs from memory m takes
// n * (t_read(m) + t_pe). MRAM and SRAM portions of a task are serialized
// within a module (paper §III-B); modules of a cluster run in parallel.
//
// Power management implemented here:
//   * SRAM is powered whenever it holds resident weights (retention) and
//     during compute bursts (it is also the I/O buffer). Otherwise gated.
//   * MRAM is powered only while being accessed (non-volatile), i.e. during
//     bursts that stream from it and during data movement.
//   * The PE is powered only during compute bursts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/units.hpp"
#include "energy/ledger.hpp"
#include "energy/power_spec.hpp"
#include "mem/bank.hpp"
#include "pe/processing_element.hpp"

namespace hhpim::pim {

struct ModuleConfig {
  std::string name = "pim0";
  energy::ClusterKind cluster = energy::ClusterKind::kHighPerformance;
  std::size_t mram_bytes = 64 * 1024;  ///< 0 = module has no MRAM (Baseline/Hetero)
  std::size_t sram_bytes = 64 * 1024;
};

/// Completion report of a burst operation.
struct BurstResult {
  Time start;
  Time complete;
};

/// Integer accounting snapshot of one module, used by the batched
/// steady-state kernel: the delta between two snapshots taken around one
/// task is the exact per-task advance, and fast_forward() applies it
/// `repeats` more times (all fields are integers, so repetition is exact).
struct ModuleCounters {
  Time busy_until;
  Time mram_on;   ///< MRAM bank accumulated on-time
  Time sram_on;   ///< SRAM bank accumulated on-time
  Time pe_on;     ///< PE accumulated on-time
  /// Leakage-interval anchors: a tracker gated per burst advances its
  /// anchor by one period per task; a tracker held at constant power
  /// (SRAM weight retention) leaves it frozen until the slice-end settle.
  /// The delta tells fast_forward() which shift each tracker needs.
  Time mram_anchor, sram_anchor, pe_anchor;
  std::uint64_t mram_reads = 0, mram_writes = 0;
  std::uint64_t sram_reads = 0, sram_writes = 0;
  std::uint64_t macs = 0;

  /// Per-period advance between two snapshots of the same module.
  [[nodiscard]] static ModuleCounters delta(const ModuleCounters& before,
                                            const ModuleCounters& after);
};

class PimModule {
 public:
  PimModule(ModuleConfig config, const energy::PowerSpec& spec,
            energy::EnergyLedger* ledger);

  [[nodiscard]] const ModuleConfig& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] bool has_mram() const { return mram_.has_value(); }

  /// Weight capacity (int8 weights) of one memory kind.
  [[nodiscard]] std::uint64_t weight_capacity(energy::MemoryKind m) const;

  // --- Weight residency ----------------------------------------------------

  /// Declares that `weights` int8 weights now live in memory `m`. Manages the
  /// SRAM retention-leakage window. Throws if capacity is exceeded or the
  /// module lacks that memory.
  void set_resident(energy::MemoryKind m, std::uint64_t weights, Time now);
  [[nodiscard]] std::uint64_t resident(energy::MemoryKind m) const;

  // --- Timed operations (module-serialized) --------------------------------

  /// `macs` MACs streaming weights from memory `m`. Starts at `now` or when
  /// the module frees up.
  BurstResult compute_burst(Time now, energy::MemoryKind m, std::uint64_t macs);

  /// Streams `weights` int8 weights out of memory `m` (reads, for transfers).
  BurstResult stream_out(Time now, energy::MemoryKind m, std::uint64_t weights);

  /// Streams `weights` int8 weights into memory `m` (writes).
  BurstResult stream_in(Time now, energy::MemoryKind m, std::uint64_t weights);

  /// Moves `weights` between this module's own MRAM and SRAM (intra-module):
  /// read source + write destination, serialized through the interface.
  BurstResult intra_move(Time now, energy::MemoryKind from, energy::MemoryKind to,
                         std::uint64_t weights);

  [[nodiscard]] Time busy_until() const { return busy_until_; }

  // --- Functional compute (small-scale; validates the burst model) ---------

  /// Timed dot product over real int8 data stored in memory `m` at
  /// `weight_addr`, against the activation vector `acts` (served from the
  /// module's SRAM I/O region conceptually). Returns the accumulator.
  std::int32_t compute_dot(Time now, energy::MemoryKind m, std::size_t weight_addr,
                           const std::int8_t* acts, std::size_t n, BurstResult* timing);

  /// Functional access to the underlying banks (tests, RISC-V DMA).
  [[nodiscard]] mem::Bank& bank(energy::MemoryKind m);
  [[nodiscard]] pe::ProcessingElement& pe() { return pe_; }

  /// Closes all leakage windows at `now` (end of measurement).
  void settle(Time now);

  // --- Steady-state fast path (batched execution / processor reuse) --------

  /// Current accounting snapshot (see ModuleCounters).
  [[nodiscard]] ModuleCounters counters() const;

  /// Advances the module by `repeats` periods of the steady-state interval
  /// described by `per_period` (a ModuleCounters::delta): busy time and
  /// leakage anchors shift by `per_period.busy_until` per period, counters
  /// and on-times accumulate. The caller replays the matching energy posts
  /// through EnergyLedger::replay — together the two restore exactly the
  /// state `repeats` scalar re-executions of the recorded interval would
  /// have produced (pinned by tests/test_batched.cpp).
  void fast_forward(const ModuleCounters& per_period, int repeats);

  /// Returns power/accounting state (banks, PE, busy time, residency) to
  /// just-constructed. The owning processor resets the ledger separately.
  void reset_accounting();

  /// State walk (common/state_visitor.hpp): residency, the module
  /// occupancy horizon, the MRAM shape, then each bank and the PE.
  template <class V>
  void visit_state(V& v, Time now) {
    v.count(resident_[0]);
    v.count(resident_[1]);
    v.horizon(busy_until_, now);
    v.shape(mram_.has_value() ? 1 : 0, "MRAM presence", config_.name);
    if (mram_.has_value()) mram_->visit_state(v, now);
    sram_.visit_state(v, now);
    pe_.visit_state(v, now);
  }

  /// Per-MAC latency when streaming from memory `m` (t_read + t_pe).
  [[nodiscard]] Time mac_latency(energy::MemoryKind m) const;

  [[nodiscard]] std::uint64_t total_macs() const { return pe_.mac_count(); }

 private:
  /// Opens power windows for a burst [start, end] touching memory `m`.
  void open_windows(Time start, energy::MemoryKind m, bool uses_pe);
  void close_windows(Time end, energy::MemoryKind m, bool uses_pe);
  mem::Bank& require_bank(energy::MemoryKind m);
  [[nodiscard]] const mem::Bank& require_bank(energy::MemoryKind m) const;

  ModuleConfig config_;
  const energy::ModuleSpec& spec_;
  std::optional<mem::Bank> mram_;
  mem::Bank sram_;
  pe::ProcessingElement pe_;
  std::uint64_t resident_[2] = {0, 0};  // indexed by MemoryKind
  Time busy_until_ = Time::zero();
};

}  // namespace hhpim::pim
