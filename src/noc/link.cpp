#include "noc/link.hpp"

#include <algorithm>
#include <cmath>

namespace hhpim::noc {

Link::Link(LinkConfig config, energy::EnergyLedger* ledger)
    : config_(std::move(config)),
      ledger_(ledger),
      id_(ledger != nullptr ? ledger->register_component(config_.name)
                            : energy::ComponentId{}) {}

Time Link::serialization_time(std::uint64_t bytes) const {
  const double ns = static_cast<double>(bytes) / config_.bandwidth_bytes_per_ns;
  return Time::ns(ns);
}

TransferResult Link::transfer(Time now, std::uint64_t bytes) {
  const Time start = std::max(now, busy_until_);
  const Time done_serializing = start + serialization_time(bytes);
  busy_until_ = done_serializing;
  const Time complete = done_serializing + config_.latency;
  const Energy e = config_.energy_per_byte * static_cast<double>(bytes);
  if (ledger_ != nullptr) ledger_->add(id_, energy::Activity::kTransfer, e);
  bytes_moved_ += bytes;
  return TransferResult{start, complete, e};
}

}  // namespace hhpim::noc
