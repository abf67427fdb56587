#include "fleet/outcome_cache.hpp"

#include <algorithm>

namespace hhpim::fleet {

namespace {

/// A new row's capacity; a full row doubles.
constexpr std::uint32_t kFirstRowSlots = 8;

}  // namespace

State& OutcomeCache::intern_locked(std::uint64_t reuse_key, std::string_view bytes) {
  auto& machine = states_[reuse_key];
  auto it = machine.find(bytes);
  if (it == machine.end()) {
    auto state = std::make_unique<State>(reuse_key, std::make_shared<const std::string>(bytes));
    it = machine.emplace(*state->blob(), std::move(state)).first;
  }
  return *it->second;
}

const State& OutcomeCache::intern(std::uint64_t reuse_key, std::string_view bytes) {
  const std::lock_guard<std::mutex> lock{mu_};
  return intern_locked(reuse_key, bytes);
}

const SliceOutcome& OutcomeCache::record(const State& from, const SliceKey& key,
                                         SliceOutcome out, std::string_view post) {
  const std::lock_guard<std::mutex> lock{mu_};
  if (const SliceOutcome* first = from.find(key)) return *first;
  // Every State is created non-const by intern_locked; rows are written
  // only here, under mu_.
  State& s = const_cast<State&>(from);
  out.next = &intern_locked(s.reuse_key(), post);
  if (s.size_ == s.live_.size()) {
    // Moving a vector keeps its buffer, so readers of the old row are safe.
    std::vector<State::Entry> row(s.size_ == 0 ? kFirstRowSlots : 2 * s.size_);
    std::copy_n(s.live_.begin(), s.size_, row.begin());
    s.row_.store(row.data(), std::memory_order_release);
    if (!s.live_.empty()) s.superseded_.push_back(std::move(s.live_));
    s.live_ = std::move(row);
  }
  std::atomic<std::uint32_t>& cell = s.index_[State::bucket(key)];
  State::Entry& e = s.live_[s.size_];
  e = State::Entry{key, out, cell.load(std::memory_order_relaxed)};
  cell.store(++s.size_, std::memory_order_release);
  return e.outcome;
}

OutcomeCache::Stats OutcomeCache::stats() const {
  const std::lock_guard<std::mutex> lock{mu_};
  Stats st;
  for (const auto& [machine, states] : states_) {
    st.states += states.size();
    for (const auto& [bytes, s] : states) {
      st.outcomes += s->size_;
      st.slots += s->live_.size();
      st.slots_kept += s->live_.size();
      for (const auto& row : s->superseded_) st.slots_kept += row.size();
    }
  }
  return st;
}

OutcomeCache& OutcomeCache::process_cache() {
  static OutcomeCache cache;
  return cache;
}

}  // namespace hhpim::fleet
