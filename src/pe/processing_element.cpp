#include "pe/processing_element.hpp"

#include <algorithm>
#include <stdexcept>

namespace hhpim::pe {

ProcessingElement::ProcessingElement(std::string name, energy::PeSpec spec,
                                     energy::EnergyLedger* ledger)
    : name_(std::move(name)),
      spec_(spec),
      ledger_(ledger),
      id_(ledger != nullptr ? ledger->register_component(name_) : energy::ComponentId{}),
      tracker_(ledger, id_, spec.leakage) {}

Time ProcessingElement::begin(Time now, std::uint64_t count) {
  if (!tracker_.is_on()) {
    throw std::logic_error("PE " + name_ + ": compute while power-gated");
  }
  const Time start = std::max(now, busy_until_);
  busy_until_ = start + spec_.mac_latency * static_cast<std::int64_t>(count);
  macs_ += count;
  if (ledger_ != nullptr) {
    ledger_->add(id_, energy::Activity::kCompute,
                 spec_.mac_energy() * static_cast<double>(count));
  }
  return start;
}

MacResult ProcessingElement::mac(Time now, std::int8_t a, std::int8_t b, std::int32_t acc) {
  const Time start = begin(now, 1);
  return MacResult{start, busy_until_,
                   acc + static_cast<std::int32_t>(a) * static_cast<std::int32_t>(b)};
}

MacResult ProcessingElement::dot(Time now, std::span<const std::int8_t> a,
                                 std::span<const std::int8_t> b, std::int32_t acc) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("PE " + name_ + ": dot operand length mismatch");
  }
  const Time start = begin(now, a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return MacResult{start, busy_until_, acc};
}

MacResult ProcessingElement::burst(Time now, std::uint64_t count) {
  const Time start = begin(now, count);
  return MacResult{start, busy_until_, 0};
}

Energy ProcessingElement::charge_macs(std::uint64_t count) {
  macs_ += count;
  const Energy e = spec_.mac_energy() * static_cast<double>(count);
  if (ledger_ != nullptr) ledger_->add(id_, energy::Activity::kCompute, e);
  return e;
}

std::int8_t ProcessingElement::requantize(std::int32_t acc, int shift) {
  const std::int32_t shifted = shift >= 0 ? (acc >> shift) : (acc << -shift);
  return static_cast<std::int8_t>(std::clamp<std::int32_t>(shifted, -128, 127));
}

}  // namespace hhpim::pe
