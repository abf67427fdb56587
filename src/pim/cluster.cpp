#include "pim/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace hhpim::pim {

Cluster::Cluster(ClusterConfig config, const energy::PowerSpec& spec,
                 energy::EnergyLedger* ledger)
    : config_(std::move(config)) {
  modules_.reserve(config_.module_count);
  for (std::size_t i = 0; i < config_.module_count; ++i) {
    ModuleConfig mc;
    mc.name = config_.name + std::to_string(i);
    mc.cluster = config_.kind;
    mc.mram_bytes = config_.mram_bytes_per_module;
    mc.sram_bytes = config_.sram_bytes_per_module;
    modules_.push_back(std::make_unique<PimModule>(mc, spec, ledger));
  }
}

std::uint64_t Cluster::weight_capacity(energy::MemoryKind m) const {
  std::uint64_t total = 0;
  for (const auto& mod : modules_) total += mod->weight_capacity(m);
  return total;
}

std::uint64_t Cluster::resident(energy::MemoryKind m) const {
  std::uint64_t total = 0;
  for (const auto& mod : modules_) total += mod->resident(m);
  return total;
}

void Cluster::distribute_resident(energy::MemoryKind m, std::uint64_t weights, Time now) {
  const std::uint64_t n = modules_.size();
  const std::uint64_t base = weights / n;
  const std::uint64_t extra = weights % n;
  for (std::uint64_t i = 0; i < n; ++i) {
    modules_[i]->set_resident(m, base + (i < extra ? 1 : 0), now);
  }
}

Time Cluster::compute(Time now, energy::MemoryKind m, std::uint64_t macs) {
  const std::uint64_t n = modules_.size();
  const std::uint64_t base = macs / n;
  const std::uint64_t extra = macs % n;
  Time done = now;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t share = base + (i < extra ? 1 : 0);
    if (share == 0) continue;
    done = std::max(done, modules_[i]->compute_burst(now, m, share).complete);
  }
  return done;
}

Time Cluster::busy_until() const {
  Time t = Time::zero();
  for (const auto& m : modules_) t = std::max(t, m->busy_until());
  return t;
}

Time Cluster::mac_latency(energy::MemoryKind m) const {
  return modules_.front()->mac_latency(m);
}

void Cluster::settle(Time now) {
  for (auto& m : modules_) m->settle(now);
}

void Cluster::reset_accounting() {
  for (auto& m : modules_) m->reset_accounting();
}

}  // namespace hhpim::pim
