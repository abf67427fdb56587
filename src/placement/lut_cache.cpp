#include "placement/lut_cache.hpp"

#include <chrono>
#include <exception>

namespace hhpim::placement {

std::uint64_t cost_model_hash(const CostModel& m) {
  Fnv1a h;
  for (const SpaceCost& c : m.space) {
    h.add(c.time_per_weight.as_ps())
        .add(c.dyn_per_weight.as_pj())
        .add(c.leak_per_weight.as_mw())
        .add(static_cast<std::uint64_t>(c.capacity_weights))
        .add(c.read_latency.as_ps())
        .add(c.write_latency.as_ps())
        .add(c.read_energy.as_pj())
        .add(c.write_energy.as_pj())
        .add(static_cast<std::uint64_t>(c.modules));
  }
  h.add(m.uses_per_weight).add(static_cast<std::uint64_t>(m.gate_granularity_weights));
  return h.digest();
}

LutCacheKey LutCacheKey::make(std::uint64_t topology_hash, std::uint64_t arch_hash,
                              const CostModel& model, const LutParams& params) {
  LutCacheKey k;
  k.topology_hash = topology_hash;
  k.arch_hash = arch_hash;
  k.cost_hash = cost_model_hash(model);
  k.slice_ps = params.slice.as_ps();
  k.total_weights = params.total_weights;
  k.t_entries = params.t_entries;
  k.k_blocks = params.k_blocks;
  return k;
}

std::size_t LutCacheKey::Hash::operator()(const LutCacheKey& k) const {
  Fnv1a h;
  h.add(k.topology_hash)
      .add(k.arch_hash)
      .add(k.cost_hash)
      .add(k.slice_ps)
      .add(k.total_weights)
      .add(k.t_entries)
      .add(k.k_blocks);
  return static_cast<std::size_t>(h.digest());
}

std::shared_ptr<const AllocationLut> LutCache::get_or_build(const LutCacheKey& key,
                                                            const CostModel& model,
                                                            const LutParams& params) {
  std::promise<std::shared_ptr<const AllocationLut>> promise;
  Future future;
  {
    const std::lock_guard<std::mutex> lock{mu_};
    const auto [it, inserted] = slots_.try_emplace(key);
    if (inserted) {
      ++misses_;
      it->second = promise.get_future().share();
    } else {
      future = it->second;  // built or in flight; counted once it resolves
    }
  }

  if (!future.valid()) {
    std::shared_ptr<const AllocationLut> lut;
    try {
      lut = std::make_shared<const AllocationLut>(build_ ? build_(model, params)
                                                         : AllocationLut::build(model, params));
    } catch (...) {
      {
        // Only the builder removes a slot, so the one under `key` is ours.
        const std::lock_guard<std::mutex> lock{mu_};
        slots_.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;  // the builder's own call failed; its miss stays a miss
    }
    promise.set_value(lut);
    return lut;
  }

  // Classified by the build's outcome, so a failed build never counts a hit.
  try {
    std::shared_ptr<const AllocationLut> lut = future.get();
    const std::lock_guard<std::mutex> lock{mu_};
    ++hits_;
    return lut;
  } catch (...) {
    const std::lock_guard<std::mutex> lock{mu_};
    ++failed_joins_;
    throw;
  }
}

bool LutCache::contains(const LutCacheKey& key) const {
  const std::lock_guard<std::mutex> lock{mu_};
  return slots_.contains(key);
}

LutCache::Stats LutCache::stats() const {
  const std::lock_guard<std::mutex> lock{mu_};
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.failed_joins = failed_joins_;
  s.entries = slots_.size();
  for (const auto& [key, future] : slots_) {
    if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++s.in_flight;
    }
  }
  return s;
}

LutCache& LutCache::process_cache() {
  static LutCache cache;
  return cache;
}

}  // namespace hhpim::placement
