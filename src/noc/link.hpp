// Point-to-point link: fixed propagation latency + serialization at a given
// bandwidth, with per-byte transfer energy. Links are occupied while a
// transfer is serializing; back-to-back transfers queue.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "energy/ledger.hpp"

namespace hhpim::noc {

struct LinkConfig {
  std::string name = "link";
  double bandwidth_bytes_per_ns = 8.0;  ///< e.g. 64-bit bus at 1 GHz
  Time latency = Time::ns(2.0);         ///< propagation/pipeline latency
  Energy energy_per_byte = Energy::pj(0.15);
};

struct TransferResult {
  Time start;     ///< when serialization began
  Time complete;  ///< when the last byte arrived at the far end
  Energy energy;
};

class Link {
 public:
  Link(LinkConfig config, energy::EnergyLedger* ledger);

  /// Sends `bytes` at `now` (or when the link frees up).
  TransferResult transfer(Time now, std::uint64_t bytes);

  [[nodiscard]] Time busy_until() const { return busy_until_; }
  [[nodiscard]] std::uint64_t bytes_moved() const { return bytes_moved_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }

  /// Serialization time of a payload on an idle link (excludes latency).
  [[nodiscard]] Time serialization_time(std::uint64_t bytes) const;

  /// Returns timing/counters to just-constructed (processor reuse; the
  /// owning processor resets the ledger separately).
  void reset_accounting() {
    busy_until_ = Time::zero();
    bytes_moved_ = 0;
  }

  /// State walk (common/state_visitor.hpp): only the occupancy horizon;
  /// bytes_moved is history.
  template <class V>
  void visit_state(V& v, Time now) {
    v.horizon(busy_until_, now);
  }

 private:
  LinkConfig config_;
  energy::EnergyLedger* ledger_;
  energy::ComponentId id_;
  Time busy_until_ = Time::zero();
  std::uint64_t bytes_moved_ = 0;
};

}  // namespace hhpim::noc
