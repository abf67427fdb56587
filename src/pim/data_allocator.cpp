#include "pim/data_allocator.hpp"

#include <algorithm>
#include <stdexcept>

namespace hhpim::pim {

DataAllocator::DataAllocator(DataAllocatorConfig config, std::size_t modules_per_cluster,
                             energy::EnergyLedger* ledger)
    : config_(std::move(config)),
      mem_interface_(
          noc::LinkConfig{
              config_.name + ".mem_if",
              config_.bytes_per_ns_per_module * static_cast<double>(modules_per_cluster),
              config_.interface_latency,
              config_.energy_per_byte,
          },
          ledger) {}

Time DataAllocator::run_transfer(Time now, const TransferRequest& req) {
  if (req.src == nullptr || req.weights == 0) return now;

  if (req.dst == nullptr || req.dst == req.src) {
    // Intra-module MRAM <-> SRAM move through the module interface.
    return req.src->intra_move(now, req.src_mem, req.dst_mem, req.weights).complete;
  }

  const std::uint64_t chunk = config_.rearrange_buffer_bytes;
  std::uint64_t remaining = req.weights;
  // Pipeline recurrences: the rearrange buffer double-buffers one chunk, so
  // chunk i's destination write may overlap chunk i+1's source read, but a
  // chunk cannot start writing before it was fully read and transferred.
  Time read_free = now;   // source side availability
  Time write_free = now;  // destination side availability
  Time complete = now;
  while (remaining > 0) {
    const std::uint64_t n = std::min<std::uint64_t>(chunk, remaining);
    remaining -= n;
    const auto rd = req.src->stream_out(read_free, req.src_mem, n);
    read_free = rd.complete;
    const auto tx = mem_interface_.transfer(rd.complete, n);
    const Time write_start = std::max(tx.complete, write_free);
    const auto wr = req.dst->stream_in(write_start, req.dst_mem, n);
    write_free = wr.complete;
    complete = wr.complete;
  }
  return complete;
}

TransferSummary DataAllocator::execute(Time now, const std::vector<TransferRequest>& requests) {
  TransferSummary summary;
  summary.start = now;
  summary.complete = now;
  for (const auto& req : requests) {
    if (req.weights == 0) continue;
    const Time done = run_transfer(now, req);
    summary.complete = std::max(summary.complete, done);
    summary.weights_moved += req.weights;
    summary.chunks += (req.weights + config_.rearrange_buffer_bytes - 1) /
                      config_.rearrange_buffer_bytes;
  }
  total_moved_ += summary.weights_moved;
  return summary;
}

}  // namespace hhpim::pim
