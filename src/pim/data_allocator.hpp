// Data Allocator (Fig. 2): plans and executes weight movement between PIM
// modules — across clusters through the Data Rearrange Buffer and the MEM
// Interface Logic, or within a module between MRAM and SRAM.
//
// Cross-cluster transfers are chunked by the rearrange-buffer capacity and
// pipelined: while chunk i is being written at the destination, chunk i+1 is
// already being read at the source (double buffering). The buffer "retains
// the data until the destination module is ready" (paper §II), which is what
// decouples the differing HP/LP access speeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "energy/ledger.hpp"
#include "energy/power_spec.hpp"
#include "noc/link.hpp"
#include "pim/module.hpp"

namespace hhpim::pim {

/// One planned movement of `weights` int8 weights.
struct TransferRequest {
  PimModule* src = nullptr;
  energy::MemoryKind src_mem = energy::MemoryKind::kSram;
  PimModule* dst = nullptr;  ///< nullptr dst => same module (intra move)
  energy::MemoryKind dst_mem = energy::MemoryKind::kSram;
  std::uint64_t weights = 0;
};

struct DataAllocatorConfig {
  std::string name = "alloc";
  std::size_t rearrange_buffer_bytes = 4096;
  /// MEM interface bandwidth per module; total scales with module count
  /// ("the bandwidth of the MEM Interface Logic is scaled according to the
  /// number of PIM modules within each cluster", paper §II).
  double bytes_per_ns_per_module = 4.0;
  Time interface_latency = Time::ns(2.0);
  Energy energy_per_byte = Energy::pj(0.12);
};

struct TransferSummary {
  Time start;
  Time complete;
  std::uint64_t weights_moved = 0;
  std::uint64_t chunks = 0;
};

class DataAllocator {
 public:
  DataAllocator(DataAllocatorConfig config, std::size_t modules_per_cluster,
                energy::EnergyLedger* ledger);

  /// Executes a batch of transfers starting at `now`. Transfers to distinct
  /// module pairs proceed in parallel (the MEM interface is per-module);
  /// chunks within one transfer are pipelined through the rearrange buffer.
  /// Returns the overall completion.
  TransferSummary execute(Time now, const std::vector<TransferRequest>& requests);

  [[nodiscard]] const DataAllocatorConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t total_weights_moved() const { return total_moved_; }

  /// Returns timing/counters to just-constructed (processor reuse).
  void reset_accounting() {
    total_moved_ = 0;
    mem_interface_.reset_accounting();
  }

  /// State walk (common/state_visitor.hpp): the MEM-interface occupancy;
  /// total_weights_moved is history.
  template <class V>
  void visit_state(V& v, Time now) {
    mem_interface_.visit_state(v, now);
  }

 private:
  /// One pipelined chunked transfer between two modules.
  Time run_transfer(Time now, const TransferRequest& req);

  DataAllocatorConfig config_;
  noc::Link mem_interface_;
  std::uint64_t total_moved_ = 0;
};

}  // namespace hhpim::pim
