// Thread-safe checkout pool of reusable sys::Processors — the one pool the
// experiment runner (exp::Runner) and the fleet simulator share in shape.
//
// Processors are keyed by processor_reuse_key(config, model): a reset()
// Processor is bit-exchangeable for a fresh one built from any pair with the
// same key (pinned by tests/test_batched.cpp). checkout() pops an idle
// processor and reset()s it, or constructs one — both outside the lock, so
// the critical section is a pointer pop, never simulation-state work. The
// RAII Lease returns the processor on destruction.
//
// One pool shared by every worker bounds constructions per key by the peak
// number of concurrent leases of that key; per-worker pools would construct
// workers × keys processors, which is what made oversubscribed workers
// slower than one.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "hhpim/processor.hpp"

namespace hhpim::sys {

class ProcessorPool {
 public:
  /// RAII checkout: returns the processor to the pool when destroyed or
  /// move-assigned over.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    /// The leased processor, in just-constructed state at checkout (unless
    /// checked out with Reuse::kAsLeft).
    [[nodiscard]] Processor& get() const { return *proc_; }
    /// The reuse key the lease was checked out under.
    [[nodiscard]] std::uint64_t key() const { return key_; }
    [[nodiscard]] explicit operator bool() const { return proc_ != nullptr; }

   private:
    friend class ProcessorPool;
    Lease(ProcessorPool* pool, std::uint64_t key, std::unique_ptr<Processor> proc);
    void release();

    ProcessorPool* pool_ = nullptr;
    std::uint64_t key_ = 0;
    std::unique_ptr<Processor> proc_;
  };

  /// What checkout() does to a pooled processor it hands out again.
  enum class Reuse : std::uint8_t {
    kReset,   ///< reset() it: the lease starts in just-constructed state
    /// Leave it as its last lease left it, for a caller that loads a state
    /// into it at once (Processor::restore resets first): one reset, not two.
    kAsLeft,
  };

  /// A processor for (config, model) in just-constructed state (a pooled
  /// one is reset() unless `reuse` is kAsLeft). `key` must be
  /// processor_reuse_key(config, model), precomputed by the caller so hot
  /// loops do not rehash; `config.lut_cache` must already be resolved (it is
  /// part of the key). Safe to call from any thread.
  [[nodiscard]] Lease checkout(std::uint64_t key, const SystemConfig& config,
                               const nn::Model& model, Reuse reuse = Reuse::kReset);
  /// Same, hashing the key here.
  [[nodiscard]] Lease checkout(const SystemConfig& config, const nn::Model& model) {
    return checkout(processor_reuse_key(config, model), config, model);
  }

  /// Idle processors currently pooled (leased ones excluded).
  [[nodiscard]] std::size_t size() const;

 private:
  void give_back(std::uint64_t key, std::unique_ptr<Processor> proc);

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<Processor>>> idle_;
};

}  // namespace hhpim::sys
