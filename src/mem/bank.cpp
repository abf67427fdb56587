#include "mem/bank.hpp"

#include <algorithm>
#include <stdexcept>

namespace hhpim::mem {

Bank::Bank(BankConfig config, energy::EnergyLedger* ledger)
    : config_(std::move(config)),
      ledger_(ledger),
      id_(ledger != nullptr ? ledger->register_component(config_.name)
                            : energy::ComponentId{}),
      tracker_(ledger, id_, leakage_power()) {
  if (config_.word_bytes == 0 || config_.capacity_bytes % config_.word_bytes != 0) {
    throw std::invalid_argument("Bank: capacity must be a multiple of word size");
  }
}

Power Bank::leakage_power() const {
  const double scale = static_cast<double>(config_.capacity_bytes) /
                       static_cast<double>(config_.reference_capacity_bytes);
  return config_.power.leakage * scale;
}

void Bank::power_on(Time now) {
  if (tracker_.is_on() && active_bytes_ == config_.capacity_bytes) return;
  const bool was_off = !tracker_.is_on();
  tracker_.set_power(leakage_power(), now);
  tracker_.power_on(now);
  active_bytes_ = config_.capacity_bytes;
  // MRAM is non-volatile: data survives gating. SRAM comes up with garbage.
  if (was_off && config_.kind == energy::MemoryKind::kSram) data_valid_ = false;
}

void Bank::power_off(Time now) {
  if (!tracker_.is_on()) return;
  tracker_.power_off(now);
  active_bytes_ = 0;
  if (config_.kind == energy::MemoryKind::kSram) {
    data_valid_ = false;
    if (storage_dirty_) {
      std::fill(storage_.begin(), storage_.end(), 0);
      storage_dirty_ = false;
    }
  }
}

std::size_t Bank::subbank_count() const {
  const std::size_t g = config_.gate_granularity_bytes;
  return (config_.capacity_bytes + g - 1) / g;
}

void Bank::set_active_bytes(std::size_t bytes, Time now) {
  if (bytes == 0) {
    power_off(now);
    return;
  }
  const std::size_t g = config_.gate_granularity_bytes;
  const std::size_t powered = std::min(config_.capacity_bytes, ((bytes + g - 1) / g) * g);
  if (tracker_.is_on() && powered == active_bytes_) return;
  tracker_.set_power(powered_leakage(powered), now);
  tracker_.power_on(now);
  active_bytes_ = powered;
}

Power Bank::powered_leakage(std::size_t powered) const {
  // For a fully powered macro the fraction is exactly 1.0, so this matches
  // power_on's leakage_power() bit for bit.
  const double fraction =
      static_cast<double>(powered) / static_cast<double>(config_.capacity_bytes);
  return leakage_power() * fraction;
}

void Bank::check_range(std::size_t addr, std::size_t words) const {
  const std::size_t bytes = words * config_.word_bytes;
  if (addr % config_.word_bytes != 0) {
    throw std::out_of_range("Bank " + config_.name + ": unaligned address");
  }
  if (addr + bytes > config_.capacity_bytes || addr + bytes < addr) {
    throw std::out_of_range("Bank " + config_.name + ": access beyond capacity");
  }
}

AccessResult Bank::access(Time now, std::size_t words, bool is_write) {
  if (!tracker_.is_on()) {
    throw std::logic_error("Bank " + config_.name + ": access while power-gated");
  }
  const Time per_word = is_write ? config_.timing.write : config_.timing.read;
  const Time start = std::max(now, busy_until_);
  const Time complete = start + per_word * static_cast<std::int64_t>(words);
  busy_until_ = complete;

  const Power dyn = is_write ? config_.power.dyn_write : config_.power.dyn_read;
  const Energy e = dyn * (per_word * static_cast<std::int64_t>(words));
  if (ledger_ != nullptr) {
    ledger_->add(id_, is_write ? energy::Activity::kMemWrite : energy::Activity::kMemRead, e);
  }
  if (is_write) {
    writes_ += words;
  } else {
    reads_ += words;
  }
  return AccessResult{start, complete, e};
}

AccessResult Bank::read(Time now, std::size_t addr, std::size_t words, std::uint8_t* out) {
  check_range(addr, words);
  const AccessResult r = access(now, words, /*is_write=*/false);
  if (out != nullptr) {
    const std::size_t bytes = words * config_.word_bytes;
    if (storage_.empty()) {
      std::fill_n(out, bytes, std::uint8_t{0});
    } else {
      std::copy_n(storage_.begin() + static_cast<std::ptrdiff_t>(addr), bytes, out);
    }
  }
  return r;
}

AccessResult Bank::write(Time now, std::size_t addr, std::size_t words,
                         const std::uint8_t* data) {
  check_range(addr, words);
  const AccessResult r = access(now, words, /*is_write=*/true);
  if (data != nullptr) {
    allocate_storage();
    std::copy_n(data, words * config_.word_bytes,
                storage_.begin() + static_cast<std::ptrdiff_t>(addr));
    storage_dirty_ = true;
  }
  data_valid_ = true;
  return r;
}

Energy Bank::charge_reads(std::uint64_t words) {
  const Energy e = config_.power.dyn_read *
                   (config_.timing.read * static_cast<std::int64_t>(words));
  if (ledger_ != nullptr) ledger_->add(id_, energy::Activity::kMemRead, e);
  reads_ += words;
  return e;
}

Energy Bank::charge_writes(std::uint64_t words) {
  const Energy e = config_.power.dyn_write *
                   (config_.timing.write * static_cast<std::int64_t>(words));
  if (ledger_ != nullptr) ledger_->add(id_, energy::Activity::kMemWrite, e);
  writes_ += words;
  return e;
}

std::uint8_t Bank::peek(std::size_t addr) const {
  if (addr >= config_.capacity_bytes) {
    throw std::out_of_range("Bank " + config_.name + ": peek beyond capacity");
  }
  return storage_.empty() ? std::uint8_t{0} : storage_[addr];
}

void Bank::poke(std::size_t addr, std::uint8_t value) {
  if (addr >= config_.capacity_bytes) {
    throw std::out_of_range("Bank " + config_.name + ": poke beyond capacity");
  }
  allocate_storage();
  storage_[addr] = value;
  data_valid_ = true;
  storage_dirty_ = true;
}

void Bank::fast_forward(Time anchor_shift, Time extra_on, std::uint64_t extra_reads,
                        std::uint64_t extra_writes) {
  tracker_.fast_forward(anchor_shift, extra_on);
  reads_ += extra_reads;
  writes_ += extra_writes;
}

void Bank::reset_accounting() {
  tracker_.reset(leakage_power());
  active_bytes_ = 0;
  data_valid_ = false;
  busy_until_ = Time::zero();
  reads_ = 0;
  writes_ = 0;
  if (storage_dirty_) {
    std::fill(storage_.begin(), storage_.end(), 0);
    storage_dirty_ = false;
  }
}

Energy Bank::dynamic_energy() const {
  if (ledger_ == nullptr) return Energy::zero();
  return ledger_->component_total(id_, energy::Activity::kMemRead) +
         ledger_->component_total(id_, energy::Activity::kMemWrite);
}

Bank make_sram(const energy::PowerSpec& spec, energy::ClusterKind cluster,
               std::string name, std::size_t capacity_bytes,
               energy::EnergyLedger* ledger) {
  const auto& m = spec.module(cluster);
  BankConfig c;
  c.name = std::move(name);
  c.kind = energy::MemoryKind::kSram;
  c.capacity_bytes = capacity_bytes;
  c.word_bytes = 1;  // PIM weight streams fetch one int8 weight per access
  c.timing = m.sram_timing;
  c.power = m.sram_power;
  return Bank{std::move(c), ledger};
}

Bank make_mram(const energy::PowerSpec& spec, energy::ClusterKind cluster,
               std::string name, std::size_t capacity_bytes,
               energy::EnergyLedger* ledger) {
  const auto& m = spec.module(cluster);
  BankConfig c;
  c.name = std::move(name);
  c.kind = energy::MemoryKind::kMram;
  c.capacity_bytes = capacity_bytes;
  c.word_bytes = 1;  // PIM weight streams fetch one int8 weight per access
  c.timing = m.mram_timing;
  c.power = m.mram_power;
  return Bank{std::move(c), ledger};
}

}  // namespace hhpim::mem
