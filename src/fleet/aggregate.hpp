// Fleet-wide online aggregates, mergeable across shards.
//
// Each worker accumulates one FleetAggregate per shard while its devices
// run; the simulator merges the shard aggregates in shard-index order after
// the pool joins. Histogram merges are exact (bin-wise integer adds), and
// Summary merges happen in the fixed shard order, so the merged aggregate
// is byte-identical at any thread count — the same invariant exp::Runner
// gives per-run results.
//
// Units: busy fractions are slice busy time / slice length T (dimensionless,
// robust across devices with different models and hence different T);
// energies are millijoules. Quantiles come from sim::Histogram::quantile
// (linear within a bin) — resolution is set by AggregateShape, which must be
// identical across everything merged (enforced by Histogram::merge).
#pragma once

#include <cstdint>

#include "fleet/spec.hpp"
#include "sim/stats.hpp"

namespace hhpim::fleet {

struct DeviceResult;    // fleet/device.hpp
struct DeviceProgress;  // fleet/device.hpp

class FleetAggregate {
 public:
  explicit FleetAggregate(const AggregateShape& shape = {});

  /// Accounts one executed slice. `busy_frac` = busy time / T;
  /// `busy_time_us` = the same busy time in microseconds (absolute);
  /// `energy_mj` = everything the slice charged, in millijoules.
  void add_slice(double busy_frac, double busy_time_us, double energy_mj);

  /// Accounts one finished device (its counters and totals).
  void add_device(const DeviceResult& r);

  /// Accounts a finished device's buffered per-slice samples in slice order,
  /// then its totals — the device-major order every run path feeds, which
  /// keeps order-sensitive Summary adds byte-identical.
  void add_finished_device(const DeviceProgress& p);

  /// Adds `other` into this aggregate. Shapes must match (throws
  /// std::invalid_argument via Histogram::merge otherwise). Summary merges
  /// are order-sensitive in the last floating-point bit — merge shards in a
  /// fixed order for reproducible output (the simulator does).
  void merge(const FleetAggregate& other);

  // --- fleet counters -------------------------------------------------------
  std::uint64_t devices = 0;
  std::uint64_t executed_slices = 0;      ///< slices actually run (incl. drain)
  std::uint64_t tasks = 0;
  std::uint64_t tasks_dropped = 0;        ///< arrived after a battery died
  std::uint64_t deadline_violations = 0;
  std::uint64_t exhausted_devices = 0;
  std::uint64_t mode_switches = 0;
  std::uint64_t low_power_slices = 0;
  std::uint64_t host_cycles = 0;          ///< RISC-V host cycles (0 = no host)

  // --- distributions --------------------------------------------------------
  sim::Summary device_energy_mj;  ///< per-device total energy, millijoules
  sim::Summary final_soc;         ///< per-device battery SoC at run end
  sim::Summary busy_us;           ///< per-slice busy time, microseconds

  [[nodiscard]] const sim::Histogram& busy_frac_hist() const { return busy_frac_; }
  [[nodiscard]] const sim::Histogram& slice_energy_hist() const { return energy_; }

  /// Fleet-wide slice-latency quantile, in fractions of the slice length T
  /// (q in [0, 1]; e.g. 0.99 -> p99).
  [[nodiscard]] double busy_frac_quantile(double q) const {
    return busy_frac_.quantile(q);
  }
  /// Fleet-wide per-slice energy quantile, millijoules.
  [[nodiscard]] double slice_energy_mj_quantile(double q) const {
    return energy_.quantile(q);
  }

 private:
  sim::Histogram busy_frac_;
  sim::Histogram energy_;
};

}  // namespace hhpim::fleet
