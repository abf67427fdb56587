#include "fleet/outcome_cache.hpp"

#include <algorithm>

namespace hhpim::fleet {

namespace {

/// A new row's capacity; a full row doubles.
constexpr std::uint32_t kFirstRowSlots = 8;

}  // namespace

SliceOutcome SliceOutcome::of(const sys::SliceStats& s) {
  return {.energy_pj = s.energy.as_pj(),
          .busy_ps = s.busy_time.as_ps(),
          .movement_ps = s.movement_time.as_ps(),
          .host_cycles = s.host_cycles,
          .deadline_violated = s.deadline_violated};
}

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
                                         SliceOutcome out, std::string_view post,
                                         const energy::PostLog* posts) {
  const std::lock_guard<std::mutex> lock{mu_};
  if (const SliceOutcome* first = from.find(key)) return *first;
  // Every State is created non-const by intern_locked; rows are written
  // only here, under mu_.
  State& s = const_cast<State&>(from);
  out.next = &intern_locked(s.reuse_key(), post);
  // The copy sizes the stored log exactly; the caller's keeps its capacity.
  out.posts = posts != nullptr ? &posts_.emplace_back(*posts) : nullptr;
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

const SliceOutcome& OutcomeCache::run_exact(const State& from, const SliceKey& key,
                                            sys::Processor& proc, ByteWriter& save,
                                            energy::PostLog* posts) {
  const int n_tasks = static_cast<int>(key.n_tasks);
  if (posts != nullptr) posts->clear();
  const sys::SliceStats s =
      posts != nullptr ? proc.run_slice(n_tasks, *posts) : proc.run_slice(n_tasks);
  save.clear();
  proc.save_state(save);
  return record(from, key, SliceOutcome::of(s), save.bytes(), posts);
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
