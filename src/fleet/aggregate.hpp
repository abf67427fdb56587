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

#include "common/units.hpp"
#include "fleet/spec.hpp"
#include "sim/stats.hpp"

namespace hhpim::fleet {

struct DeviceResult;  // fleet/device.hpp
class BusyColumn;     // fleet/device.hpp

/// The two per-slice histograms, binned in the slice that executes: busy
/// time as a fraction of the slice length T, and everything the slice
/// charged (requested, pre-clamp) in millijoules. Integer bins, so adds and
/// merges give the same counts in any order — a slice is binned wherever it
/// is counted, and a FleetSnapshot carries the bins of the slices before
/// its cut.
struct SliceHistograms {
  /// The default shape; implicit, so `FleetSnapshot{}` value-initializes.
  SliceHistograms() : SliceHistograms(AggregateShape{}) {}
  explicit SliceHistograms(const AggregateShape& shape);

  void add(std::int64_t busy_ps, std::int64_t slice_ps, double energy_pj) {
    busy_frac.add(Time::ps(busy_ps) / Time::ps(slice_ps));
    slice_energy.add(Energy::pj(energy_pj).as_mj());
  }

  /// Adds `other`'s counts. Shapes must match (throws std::invalid_argument
  /// via Histogram::merge otherwise).
  void merge(const SliceHistograms& other);

  sim::Histogram busy_frac;
  sim::Histogram slice_energy;
};

class FleetAggregate {
 public:
  explicit FleetAggregate(const AggregateShape& shape = {});

  /// Accounts one finished device (its counters and totals).
  void add_device(const DeviceResult& r);

  /// Accounts one slice's busy time into `busy_us`. Welford adds depend on
  /// order, so every run path feeds them device-major: a final segment feeds
  /// a device's stored column (below), then each of its slices as it runs.
  void add_busy(std::int64_t busy_ps) { busy_us.add(Time::ps(busy_ps).as_us()); }

  /// Accounts a stored busy column into `busy_us`, in slice order: a device
  /// that ran in earlier, bounded segments, before its later slices or its
  /// totals.
  void add_busy(const BusyColumn& busy);

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
  SliceHistograms slice_bins;     ///< one sample per executed slice

  /// Fleet-wide slice-latency quantile, in fractions of the slice length T
  /// (q in [0, 1]; e.g. 0.99 -> p99).
  [[nodiscard]] double busy_frac_quantile(double q) const {
    return slice_bins.busy_frac.quantile(q);
  }
  /// Fleet-wide per-slice energy quantile, millijoules.
  [[nodiscard]] double slice_energy_mj_quantile(double q) const {
    return slice_bins.slice_energy.quantile(q);
  }
};

}  // namespace hhpim::fleet
