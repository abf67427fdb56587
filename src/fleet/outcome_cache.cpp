#include "fleet/outcome_cache.hpp"

namespace hhpim::fleet {

const SliceOutcome* OutcomeCache::lookup(const SliceOutcomeKey& key) const {
  const ReadyMap* snap = ready_.load(std::memory_order_acquire);
  if (snap == nullptr) return nullptr;
  const auto it = snap->find(key);
  return it != snap->end() ? &it->second : nullptr;
}

void OutcomeCache::insert_batch(
    const std::vector<std::pair<SliceOutcomeKey, SliceOutcome>>& entries) {
  if (entries.empty()) return;
  const std::lock_guard<std::mutex> lock{mu_};
  const ReadyMap* cur = ready_.load(std::memory_order_relaxed);

  // Cheap pre-check against the current snapshot: a shard re-recording a
  // device whose keys all landed already (racing fallbacks, repeated runs
  // against a warm cache) skips the copy-on-write entirely.
  bool any_new = cur == nullptr;
  if (!any_new) {
    for (const auto& e : entries) {
      if (cur->find(e.first) == cur->end()) {
        any_new = true;
        break;
      }
    }
  }
  if (!any_new) return;

  auto next = std::make_unique<ReadyMap>(cur != nullptr ? *cur : ReadyMap{});
  std::uint64_t inserted = 0;
  for (const auto& e : entries) {
    if (next->emplace(e.first, e.second).second) ++inserted;
  }
  if (inserted == 0) return;
  insertions_ += inserted;
  publish_locked(std::move(next));
}

const StateBlob* OutcomeCache::intern_blob(std::string_view bytes) {
  const std::lock_guard<std::mutex> lock{mu_};
  auto it = blobs_.find(bytes);
  if (it == blobs_.end()) {
    auto blob = std::make_shared<const std::string>(bytes);
    it = blobs_.try_emplace(std::string_view{*blob}, std::move(blob)).first;
  }
  return &it->second;
}

void OutcomeCache::publish_locked(std::unique_ptr<const ReadyMap> next) {
  ready_.store(next.get(), std::memory_order_release);
  retired_.push_back(std::move(next));
}

OutcomeCache::Stats OutcomeCache::stats() const {
  const std::lock_guard<std::mutex> lock{mu_};
  const ReadyMap* snap = ready_.load(std::memory_order_relaxed);
  return Stats{.insertions = insertions_,
               .entries = snap != nullptr ? snap->size() : 0,
               .blobs = blobs_.size()};
}

OutcomeCache& OutcomeCache::process_cache() {
  static OutcomeCache cache;
  return cache;
}

}  // namespace hhpim::fleet
