// Memory bank model.
//
// A Bank is one macro (e.g. the 64 kB SRAM of one PIM module). It is
// functional (stores real bytes, so the RISC-V core and functional PIM tests
// can run on it), timed (accesses occupy the bank for the spec'd latency and
// back-to-back accesses queue), and powered (dynamic energy per access,
// leakage per powered interval, power gating with technology-correct
// retention: MRAM keeps its contents across gating, SRAM loses them).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "energy/ledger.hpp"
#include "energy/power_spec.hpp"

namespace hhpim::mem {

/// Result of a timed access request.
struct AccessResult {
  Time start;      ///< When the access actually began (after queueing).
  Time complete;   ///< When the data is available / committed.
  Energy energy;   ///< Dynamic energy charged for the access.
};

struct BankConfig {
  std::string name = "bank";
  energy::MemoryKind kind = energy::MemoryKind::kSram;
  std::size_t capacity_bytes = 64 * 1024;
  std::size_t word_bytes = 4;  ///< One access moves one word.
  energy::MemoryTiming timing;
  energy::MemoryPower power;
  /// Leakage scales with capacity relative to the 64 kB reference macro.
  std::size_t reference_capacity_bytes = 64 * 1024;
  /// Power-gating granularity: the macro is built from sub-arrays of this
  /// size with independent sleep transistors; set_active_bytes() powers a
  /// whole number of them.
  std::size_t gate_granularity_bytes = 16 * 1024;
};

class Bank {
 public:
  /// `ledger` may be nullptr for purely functional use (no accounting).
  Bank(BankConfig config, energy::EnergyLedger* ledger);

  [[nodiscard]] const BankConfig& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] std::size_t capacity() const { return config_.capacity_bytes; }
  /// Leakage power scaled to this bank's capacity.
  [[nodiscard]] Power leakage_power() const;

  // --- Power state ---------------------------------------------------------

  /// Powers the bank on at time `now`. SRAM contents are invalid until
  /// rewritten (data_valid() false); MRAM contents survive.
  void power_on(Time now);
  /// Gates the bank at `now`. SRAM loses its contents.
  void power_off(Time now);

  /// Sub-bank power gating: powers only enough gate-granularity sub-arrays
  /// to cover `bytes` (0 gates the whole macro). Leakage is charged
  /// proportionally to the powered fraction. Used for weight retention,
  /// where unused sub-arrays of a macro stay gated.
  void set_active_bytes(std::size_t bytes, Time now);
  [[nodiscard]] std::size_t active_bytes() const { return active_bytes_; }
  /// Number of gate-granularity sub-arrays this macro comprises.
  [[nodiscard]] std::size_t subbank_count() const;
  [[nodiscard]] bool is_on() const { return tracker_.is_on(); }
  /// Whether stored bytes are trustworthy (false for SRAM after a gate cycle
  /// until the first write, true for MRAM whenever powered history is sane).
  [[nodiscard]] bool data_valid() const { return data_valid_; }
  /// Closes the open leakage interval (end of simulation / checkpoint).
  void settle(Time now) { tracker_.settle(now); }
  [[nodiscard]] Time total_on_time() const { return tracker_.total_on_time(); }
  /// Leakage-interval anchor (see LeakageTracker::anchor).
  [[nodiscard]] Time leakage_anchor() const { return tracker_.anchor(); }

  // --- Timed accesses ------------------------------------------------------

  /// Reads `words` consecutive words starting at byte address `addr` into
  /// `out` (may be nullptr to model timing/energy only). The access begins at
  /// `now` or when the bank becomes free, whichever is later.
  AccessResult read(Time now, std::size_t addr, std::size_t words, std::uint8_t* out);

  /// Writes `words` consecutive words from `data` (nullptr allowed).
  AccessResult write(Time now, std::size_t addr, std::size_t words, const std::uint8_t* data);

  /// Time at which the bank becomes free for the next access.
  [[nodiscard]] Time busy_until() const { return busy_until_; }

  // --- Accounting-only accesses --------------------------------------------
  // Charge dynamic energy and counters for `words` accesses without touching
  // the bank timeline or storage. Used by the burst-granularity PIM module
  // model, which owns its own serialization timeline.

  Energy charge_reads(std::uint64_t words);
  Energy charge_writes(std::uint64_t words);

  // --- Steady-state fast path (batched execution / processor reuse) --------

  /// Advances the accounting state by `repeats` periods of a recorded
  /// steady-state interval: the leakage tracker's open anchor shifts by
  /// `anchor_shift` per period and `extra_on` / `extra_reads` /
  /// `extra_writes` are the per-period deltas. The caller replays the
  /// matching energy posts through EnergyLedger::replay; this keeps the
  /// bank's counters consistent with them. The access timeline
  /// (busy_until()) is not touched — burst-model callers own their own
  /// serialization.
  void fast_forward(Time anchor_shift, Time extra_on, std::uint64_t extra_reads,
                    std::uint64_t extra_writes);

  /// Returns power/accounting state to just-constructed: gated, zero
  /// counters and on-time, contents invalid (SRAM semantics) and zeroed if
  /// ever written. The owning processor resets the ledger separately.
  void reset_accounting();

  /// State walk (common/state_visitor.hpp): power state, gated size,
  /// validity flags, the busy horizon and, when dirty, the storage bytes.
  /// The tracker's leakage power is recomputed on load from the gated size.
  template <class V>
  void visit_state(V& v, Time now) {
    tracker_.visit_state(v, now);
    v.count(active_bytes_);
    if constexpr (V::kLoad) {
      if (tracker_.is_on()) tracker_.restore_leakage(powered_leakage(active_bytes_));
    }
    v.flag(data_valid_);
    v.flag(storage_dirty_);
    v.horizon(busy_until_, now);
    if (storage_dirty_) {
      if constexpr (V::kLoad) allocate_storage();
      v.bytes(storage_, "storage size", config_.name);
    }
  }

  // --- Untimed (functional) accesses — used by the RISC-V bus --------------

  [[nodiscard]] std::uint8_t peek(std::size_t addr) const;
  void poke(std::size_t addr, std::uint8_t value);

  // --- Statistics ----------------------------------------------------------

  [[nodiscard]] std::uint64_t read_count() const { return reads_; }
  [[nodiscard]] std::uint64_t write_count() const { return writes_; }
  [[nodiscard]] Energy dynamic_energy() const;

 private:
  /// Leakage with `powered` bytes of sub-arrays on: the macro's leakage
  /// scaled by the powered fraction.
  [[nodiscard]] Power powered_leakage(std::size_t powered) const;
  void check_range(std::size_t addr, std::size_t words) const;
  AccessResult access(Time now, std::size_t words, bool is_write);
  /// Sizes storage_ to the capacity (zeros) if it is still unallocated.
  void allocate_storage() {
    if (storage_.empty()) storage_.assign(config_.capacity_bytes, 0);
  }

  BankConfig config_;
  energy::EnergyLedger* ledger_;
  energy::ComponentId id_;
  energy::LeakageTracker tracker_;
  /// The bank's bytes, allocated on the first data write or poke (or on
  /// loading a dirty bank); until then every byte reads as zero. Most banks
  /// only ever take accounting-only bursts, so most are never allocated.
  std::vector<std::uint8_t> storage_;
  std::size_t active_bytes_ = 0;
  bool data_valid_ = false;
  /// True once storage_ may differ from all-zero (set by write()/poke());
  /// lets power_off skip the SRAM-content wipe for accounting-only workloads
  /// that gate banks every burst without ever storing data.
  bool storage_dirty_ = false;
  Time busy_until_ = Time::zero();
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

/// Convenience factories producing paper-spec banks for a given cluster.
[[nodiscard]] Bank make_sram(const energy::PowerSpec& spec, energy::ClusterKind cluster,
                             std::string name, std::size_t capacity_bytes,
                             energy::EnergyLedger* ledger);
[[nodiscard]] Bank make_mram(const energy::PowerSpec& spec, energy::ClusterKind cluster,
                             std::string name, std::size_t capacity_bytes,
                             energy::EnergyLedger* ledger);

}  // namespace hhpim::mem
