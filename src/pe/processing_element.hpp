// Processing element: the INT8 multiply-accumulate datapath of one PIM
// module. Functional (int8 x int8 -> int32 accumulate, with saturating
// requantization back to int8) and timed/powered per the cluster spec.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/units.hpp"
#include "energy/ledger.hpp"
#include "energy/power_spec.hpp"

namespace hhpim::pe {

struct MacResult {
  Time start;
  Time complete;
  std::int32_t accumulator;
};

class ProcessingElement {
 public:
  /// `ledger` may be nullptr for functional-only use.
  ProcessingElement(std::string name, energy::PeSpec spec, energy::EnergyLedger* ledger);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const energy::PeSpec& spec() const { return spec_; }

  // --- Power state ---------------------------------------------------------
  void power_on(Time now) { tracker_.power_on(now); }
  void power_off(Time now) { tracker_.power_off(now); }
  void settle(Time now) { tracker_.settle(now); }
  [[nodiscard]] bool is_on() const { return tracker_.is_on(); }
  [[nodiscard]] Time total_on_time() const { return tracker_.total_on_time(); }
  /// Leakage-interval anchor (see LeakageTracker::anchor).
  [[nodiscard]] Time leakage_anchor() const { return tracker_.anchor(); }

  // --- Timed compute -------------------------------------------------------

  /// One MAC: acc += a * b. Occupies the datapath for mac_latency.
  MacResult mac(Time now, std::int8_t a, std::int8_t b, std::int32_t acc);

  /// Dot product of two int8 vectors, executed back-to-back (one MAC per
  /// element). Returns timing for the whole burst and the accumulated sum.
  MacResult dot(Time now, std::span<const std::int8_t> a, std::span<const std::int8_t> b,
                std::int32_t acc = 0);

  /// Models a burst of `count` MACs without functional data (timing/energy
  /// only) — the fast path used by the workload-level simulator.
  MacResult burst(Time now, std::uint64_t count);

  /// Accounting-only: charges energy and the MAC counter for `count` MACs
  /// without touching the PE timeline (the PIM module owns serialization).
  Energy charge_macs(std::uint64_t count);

  [[nodiscard]] Time busy_until() const { return busy_until_; }
  [[nodiscard]] std::uint64_t mac_count() const { return macs_; }

  /// Steady-state advance (batched execution): shifts the leakage anchor by
  /// `anchor_shift`, credits `extra_on` of already-posted on-time and
  /// `extra_macs` MACs. The matching energy posts are replayed through
  /// EnergyLedger::replay by the caller.
  void fast_forward(Time anchor_shift, Time extra_on, std::uint64_t extra_macs) {
    tracker_.fast_forward(anchor_shift, extra_on);
    macs_ += extra_macs;
  }

  /// State walk (common/state_visitor.hpp): power state and busy horizon;
  /// the MAC counter is history.
  template <class V>
  void visit_state(V& v, Time now) {
    tracker_.visit_state(v, now);
    v.horizon(busy_until_, now);
  }

  /// Returns accounting state to just-constructed (off, zero counters).
  /// The owning processor resets the ledger separately.
  void reset_accounting() {
    tracker_.reset(spec_.leakage);
    busy_until_ = Time::zero();
    macs_ = 0;
  }

  // --- Functional helpers --------------------------------------------------

  /// Saturating requantization of a 32-bit accumulator back to int8 with a
  /// power-of-two right shift (the usual TinyML post-GEMM step).
  [[nodiscard]] static std::int8_t requantize(std::int32_t acc, int shift);

 private:
  Time begin(Time now, std::uint64_t count);

  std::string name_;
  energy::PeSpec spec_;
  energy::EnergyLedger* ledger_;
  energy::ComponentId id_;
  energy::LeakageTracker tracker_;
  Time busy_until_ = Time::zero();
  std::uint64_t macs_ = 0;
};

}  // namespace hhpim::pe
