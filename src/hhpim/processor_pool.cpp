#include "hhpim/processor_pool.hpp"

#include <utility>

namespace hhpim::sys {

ProcessorPool::Lease::Lease(ProcessorPool* pool, std::uint64_t key,
                            std::unique_ptr<Processor> proc)
    : pool_(pool), key_(key), proc_(std::move(proc)) {}

ProcessorPool::Lease::Lease(Lease&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      key_(other.key_),
      proc_(std::move(other.proc_)) {}

ProcessorPool::Lease& ProcessorPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    release();
    pool_ = std::exchange(other.pool_, nullptr);
    key_ = other.key_;
    proc_ = std::move(other.proc_);
  }
  return *this;
}

ProcessorPool::Lease::~Lease() { release(); }

void ProcessorPool::Lease::release() {
  if (pool_ != nullptr && proc_ != nullptr) pool_->give_back(key_, std::move(proc_));
}

ProcessorPool::Lease ProcessorPool::checkout(std::uint64_t key,
                                             const SystemConfig& config,
                                             const nn::Model& model, Reuse reuse) {
  std::unique_ptr<Processor> p;
  {
    const std::lock_guard<std::mutex> lock{mu_};
    const auto it = idle_.find(key);
    if (it != idle_.end() && !it->second.empty()) {
      p = std::move(it->second.back());
      it->second.pop_back();
    }
  }
  if (p != nullptr) {
    if (reuse == Reuse::kReset) p->reset();
  } else {
    p = std::make_unique<Processor>(config, model);
  }
  return Lease{this, key, std::move(p)};
}

void ProcessorPool::give_back(std::uint64_t key, std::unique_ptr<Processor> proc) {
  const std::lock_guard<std::mutex> lock{mu_};
  idle_[key].push_back(std::move(proc));
}

std::size_t ProcessorPool::size() const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::size_t total = 0;
  for (const auto& [key, procs] : idle_) total += procs.size();
  return total;
}

}  // namespace hhpim::sys
