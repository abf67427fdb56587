// Process-wide, thread-safe cache of placement LUTs.
//
// Building an AllocationLut is the expensive part of constructing an HH-PIM
// sys::Processor (Algorithms 1 & 2 per entry; tens of millions of DP cells
// at the default 128x128 resolution). A grid or fleet constructs several
// Processors per distinct (model, arch, cost, resolution) combination —
// one per concurrently leased pool slot, and one per run for callers that
// do not pool — so each combination would be built several times. The
// LutCache deduplicates that: LUTs are immutable after build, so all
// Processors that agree on every build input share one instance by
// shared_ptr.
//
// Keying: a LUT is fully determined by (CostModel, LutParams) — the cache
// key digests every field of both. On top of that, callers fold in a model
// *topology* hash and an architecture-config hash (computed at the hhpim
// layer, where nn::Model and sys::ArchConfig are visible). Those extra
// fields are deliberately conservative: two models with equal weight totals
// but different layer structure hash differently and never share an entry,
// even though today's LUT build would coincide — correctness of sharing is
// keyed on inputs, not on derived quantities.
//
// Concurrency (see docs/ARCHITECTURE.md "Placement-LUT cache"): the cache
// is probed only when a sys::Processor is constructed, and the runners pool
// their processors, so a whole fleet or grid makes a few dozen calls. One
// mutex guards one map from key to shared_future. The first requester of a
// key inserts its future and builds outside the lock; later requesters copy
// the future under the lock and wait on it outside, so concurrent requests
// for one key build once. A failed builder erases its slot before it
// publishes the exception: every waiter rethrows it, and a later call
// retries the build.
//
// Lifetime/ownership: entries are shared_ptr<const AllocationLut>; the
// cache retains them until it is destroyed, and consumers (DynamicLutPolicy)
// co-own them, so a Processor's LUT outlives the cache it came from.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/hash.hpp"
#include "placement/lut.hpp"

namespace hhpim::placement {

namespace testing { struct LutBuilds; }  // the build seam of the tests

/// Digest of every field of a CostModel (per-space times/energies/leakage/
/// capacities/module counts, uses_per_weight, gate granularity). Two cost
/// models with equal digests produce identical LUTs for identical LutParams.
[[nodiscard]] std::uint64_t cost_model_hash(const CostModel& m);

/// Value-semantic cache key. Equality compares every field, so two keys
/// collide only if all digests and all quantization parameters agree.
struct LutCacheKey {
  std::uint64_t topology_hash = 0;   ///< nn::Model::topology_hash() (0 if N/A)
  std::uint64_t arch_hash = 0;       ///< sys::ArchConfig::config_hash() (0 if N/A)
  std::uint64_t cost_hash = 0;       ///< cost_model_hash(model)
  std::int64_t slice_ps = 0;         ///< LutParams::slice
  std::uint64_t total_weights = 0;   ///< LutParams::total_weights
  int t_entries = 0;                 ///< t_constraint quantization
  int k_blocks = 0;                  ///< block quantization

  [[nodiscard]] bool operator==(const LutCacheKey&) const = default;

  /// Assembles a key from the LUT build inputs plus the caller's
  /// topology/arch digests.
  [[nodiscard]] static LutCacheKey make(std::uint64_t topology_hash,
                                        std::uint64_t arch_hash,
                                        const CostModel& model,
                                        const LutParams& params);

  struct Hash {
    [[nodiscard]] std::size_t operator()(const LutCacheKey& k) const;
  };
};

/// Thread-safe memo of built LUTs. One instance is process-wide
/// (process_cache()); tests and benchmarks construct private instances.
class LutCache {
 public:
  struct Stats {
    /// get_or_build calls served a completed LUT: calls that found a built
    /// slot plus waiters whose joined build succeeded. A waiter is counted
    /// only once its future resolves — joining an in-flight build that then
    /// fails is a failed_join, never a hit.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        ///< get_or_build calls that started a build
    std::uint64_t failed_joins = 0;  ///< waiters whose joined build threw
    std::size_t entries = 0;         ///< live slots (completed + in flight)
    std::size_t in_flight = 0;       ///< builds currently running
  };

  LutCache() = default;
  LutCache(const LutCache&) = delete;
  LutCache& operator=(const LutCache&) = delete;

  /// Returns the LUT for `key`, building it from (model, params) on first
  /// use. Blocks while another thread builds the same key. Throws whatever
  /// AllocationLut::build throws (all waiters see the exception; the failed
  /// slot is erased). Precondition: (model, params) must be the inputs the
  /// key was made from — the cache trusts the key.
  [[nodiscard]] std::shared_ptr<const AllocationLut> get_or_build(
      const LutCacheKey& key, const CostModel& model, const LutParams& params);

  /// True if a slot exists for `key` (built or in flight).
  [[nodiscard]] bool contains(const LutCacheKey& key) const;

  [[nodiscard]] Stats stats() const;

  /// The process-wide instance shared by default across exp::Runner grids.
  [[nodiscard]] static LutCache& process_cache();

 private:
  using Future = std::shared_future<std::shared_ptr<const AllocationLut>>;

  mutable std::mutex mu_;  ///< guards slots_ and the counters
  std::unordered_map<LutCacheKey, Future, LutCacheKey::Hash> slots_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t failed_joins_ = 0;
  /// Test seam (placement::testing::LutBuilds sets it; empty otherwise): a
  /// builder's call runs it in place of AllocationLut::build, outside the
  /// lock, so a test can hold a build in flight.
  std::function<AllocationLut(const CostModel&, const LutParams&)> build_;
  friend struct testing::LutBuilds;
};

}  // namespace hhpim::placement
