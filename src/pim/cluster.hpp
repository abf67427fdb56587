// A PIM module cluster (HP or LP): N identical modules and the cluster-side
// interface (Fig. 1).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "energy/ledger.hpp"
#include "energy/power_spec.hpp"
#include "pim/module.hpp"

namespace hhpim::pim {

struct ClusterConfig {
  std::string name = "hp";
  energy::ClusterKind kind = energy::ClusterKind::kHighPerformance;
  std::size_t module_count = 4;
  std::size_t mram_bytes_per_module = 64 * 1024;  ///< 0 = no MRAM
  std::size_t sram_bytes_per_module = 64 * 1024;
};

class Cluster {
 public:
  Cluster(ClusterConfig config, const energy::PowerSpec& spec,
          energy::EnergyLedger* ledger);

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::size_t module_count() const { return modules_.size(); }
  [[nodiscard]] PimModule& module(std::size_t i) { return *modules_[i]; }
  [[nodiscard]] const PimModule& module(std::size_t i) const { return *modules_[i]; }

  /// Total weight capacity across modules for one memory kind.
  [[nodiscard]] std::uint64_t weight_capacity(energy::MemoryKind m) const;

  /// Total weights currently resident in one memory kind.
  [[nodiscard]] std::uint64_t resident(energy::MemoryKind m) const;

  /// Distributes `weights` resident weights evenly across modules
  /// (remainder to the lowest-indexed modules), updating retention windows.
  void distribute_resident(energy::MemoryKind m, std::uint64_t weights, Time now);

  /// Runs `macs` MACs streaming from memory kind `m`, split evenly across
  /// the modules, starting at `now`. Returns the cluster completion time.
  Time compute(Time now, energy::MemoryKind m, std::uint64_t macs);

  /// Time when every module is idle.
  [[nodiscard]] Time busy_until() const;

  /// Per-MAC latency of this cluster's modules when streaming from `m`.
  [[nodiscard]] Time mac_latency(energy::MemoryKind m) const;

  void settle(Time now);

  /// Returns every module to just-constructed power/accounting state
  /// (processor reuse; the owning processor resets the ledger separately).
  void reset_accounting();

  /// State walk (common/state_visitor.hpp): the module count, then every
  /// module.
  template <class V>
  void visit_state(V& v, Time now) {
    v.shape(modules_.size(), "module count", config_.name);
    for (auto& m : modules_) m->visit_state(v, now);
  }

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<PimModule>> modules_;
};

}  // namespace hhpim::pim
