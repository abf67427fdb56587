// Thread-safe memo of slice outcomes, a finite automaton over exact
// processor states, with two callers: the fleet's devices
// (FleetSimulator::drive, by default on the process-wide cache) and the exp
// grid's runs (exp::Runner::execute, a private cache per run). A slice's
// outcome — energy requested, busy/movement time, deadline flag, ledger
// posts, and the state it leaves — is a pure function of the processor's
// save_state bytes at the slice boundary, its machine, and the key below.
// Battery state never enters: the SoC only acts through the mode decision,
// an exact key field, and the drain clamp is re-applied at replay time. So
// both callers replay byte-identically to their exact paths
// (tests/test_oracle.cpp, a fleet half and a grid half).
//
// A State is named by its machine and its bytes, and by nothing else: the
// cache interns one State per (sys::processor_reuse_key, save_state bytes),
// compared byte for byte. A State owns its blob and one write-once,
// append-only row of outcomes keyed by the rest of the slice
// (docs/PERF.md "Device-level memoization"):
//   slo_ps     the device's latency SLO (the frontier the policy picks from)
//   n_tasks    the exact buffered-task count (the "load bucket")
//   mode       fleet::DeviceMode for the slice (the "SoC bucket")
//   tier       fleet::FrontierTier pinned for the slice (the "SLO bucket")
// The grid keys on n_tasks alone. The buckets are exact: memoization
// changes wall-clock, never output. An outcome points at the State the
// slice leaves, so a replay walks from state to state without hashing; the
// blob lets a caller fall back to the exact path mid-stream
// (Processor::restore, then run_exact, the one miss step) or stop at a
// checkpoint (docs/PERF.md "Memo replay inside segments").
//
// A row is read through a dense index over (n_tasks, mode, tier): one cell
// per bucket names the bucket's newest entry, and entries of one bucket
// (other SLOs, and loads past the index's last row, which share it) chain
// to older ones. A hit is State::find — two acquire loads, the cell and
// the row, and a compare of the full key, with no hashing, no lock and no
// shared write (docs/PERF.md "Exact outcome memo").
//
// Concurrency: a recorder appends under the cache's mutex, first writer
// wins per key, and publishes the entry at once: it writes the slot, then
// release-stores its bucket's cell. A full row is copied into one twice its
// capacity, published before the cell that needs it; the superseded array
// stays allocated for readers still holding it, so what a State keeps is
// under twice its live row. Nothing is dropped until the cache is
// destroyed, so a pointer from find(), intern() or record(), and an
// outcome's `posts`, stays valid for the cache's lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "energy/ledger.hpp"
#include "hhpim/processor.hpp"

namespace hhpim::fleet {

/// A Processor::save_state blob, shared and immutable: devices (and memo
/// states) at one processor state share one copy of its bytes.
using StateBlob = std::shared_ptr<const std::string>;

class State;

/// What selects an outcome within one State's row; equality compares every
/// field.
///
/// `slo_ps`/`tier` exist because the SLO policy's frontier pick is decided
/// *before* the slice runs: on the first slice the state predates the
/// override the tier is about to install, so without these fields two
/// devices with different SLOs (or different tiers at the same state) would
/// share a bucket and replay each other's outcomes. Both are 0 whenever the
/// device has no SLO.
struct SliceKey {
  std::int64_t slo_ps = 0;    ///< DeviceSpec::latency_slo_ps (0 = no SLO)
  std::uint32_t n_tasks = 0;  ///< buffered tasks executed this slice
  std::uint8_t mode = 0;      ///< fleet::DeviceMode for the slice
  std::uint8_t tier = 0;      ///< fleet::FrontierTier pinned (0 when no SLO)

  [[nodiscard]] bool operator==(const SliceKey&) const = default;
};

/// Everything a replayed slice contributes to a device or grid run.
/// `energy_pj` is the *requested* slice energy (sys::SliceStats::energy) —
/// the battery's drain clamp is re-applied per device at replay time, so one
/// outcome serves devices with any charge, including the one it exhausts.
struct SliceOutcome {
  /// The fields of `s`; no next state, no posts.
  [[nodiscard]] static SliceOutcome of(const sys::SliceStats& s);

  double energy_pj = 0.0;
  std::int64_t busy_ps = 0;
  std::int64_t movement_ps = 0;
  std::uint64_t host_cycles = 0;  ///< host-core cycles (0 when host disabled)
  bool deadline_violated = false;
  /// The state the slice leaves the processor in; set by
  /// OutcomeCache::record, null on an outcome straight from a processor.
  const State* next = nullptr;
  /// The slice's ledger posts, in storage the cache owns; null when the
  /// recorder captured none (the fleet never does).
  const energy::PostLog* posts = nullptr;
};

/// One interned processor state of one machine, and the outcomes recorded
/// from it. Created and owned by an OutcomeCache.
class State {
 public:
  State(std::uint64_t reuse_key, StateBlob blob)
      : reuse_key_(reuse_key), blob_(std::move(blob)) {}
  State(const State&) = delete;
  State& operator=(const State&) = delete;

  /// Lock-free and read-only: the outcome recorded for `key` from this
  /// state, or nullptr. Callers count their own hits and misses.
  [[nodiscard]] const SliceOutcome* find(const SliceKey& key) const {
    std::uint32_t slot = index_[bucket(key)].load(std::memory_order_acquire);
    if (slot == 0) return nullptr;
    const Entry* row = row_.load(std::memory_order_acquire);
    do {
      const Entry& e = row[slot - 1];
      if (e.key == key) return &e.outcome;
      slot = e.older;
    } while (slot != 0);
    return nullptr;
  }

  /// sys::processor_reuse_key of the machine this state belongs to.
  [[nodiscard]] std::uint64_t reuse_key() const { return reuse_key_; }
  /// The state's save_state bytes.
  [[nodiscard]] const StateBlob& blob() const { return blob_; }

 private:
  friend class OutcomeCache;
  struct Entry {
    SliceKey key;
    SliceOutcome outcome;
    std::uint32_t older = 0;  ///< the bucket's previous entry (slot + 1; 0 = none)
  };

  /// Index rows: loads 0 .. kIndexedLoads - 2 have a row each, and larger
  /// loads share the last one.
  static constexpr std::uint32_t kIndexedLoads = 32;
  /// A key's index cell: its load's row, then 1 bit of mode and 2 of tier
  /// (DeviceMode and FrontierTier fit; other values share a bucket, told
  /// apart by the full-key compare).
  [[nodiscard]] static std::size_t bucket(const SliceKey& k) {
    const std::uint32_t load = k.n_tasks < kIndexedLoads ? k.n_tasks : kIndexedLoads - 1;
    return std::size_t{load} * 8 + (k.mode & 1u) * 4 + (k.tier & 3u);
  }

  const std::uint64_t reuse_key_;
  const StateBlob blob_;
  /// Per bucket, the slot + 1 of its newest entry (0 = empty). A cell is
  /// stored after the entry it names and after the row that holds it.
  std::atomic<std::uint32_t> index_[kIndexedLoads * 8] = {};
  std::atomic<const Entry*> row_{nullptr};
  // Written only under the owning cache's mutex.
  std::uint32_t size_ = 0;
  std::vector<Entry> live_;  ///< the published row, every slot constructed
  std::vector<std::vector<Entry>> superseded_;
};

/// Thread-safe memo of slice outcomes. One instance is process-wide
/// (process_cache()); tests and benchmarks construct private instances.
class OutcomeCache {
 public:
  struct Stats {
    std::size_t states = 0;      ///< interned (machine, bytes) states
    std::size_t outcomes = 0;    ///< recorded outcomes, over every row
    std::size_t slots = 0;       ///< the live rows' capacity
    std::size_t slots_kept = 0;  ///< slots plus every superseded row's
  };

  OutcomeCache() = default;
  OutcomeCache(const OutcomeCache&) = delete;
  OutcomeCache& operator=(const OutcomeCache&) = delete;
  ~OutcomeCache() = default;

  /// The cache's State for these save_state bytes of machine `reuse_key`,
  /// added when absent. Exact: keyed by the bytes themselves. Safe to call
  /// concurrently.
  [[nodiscard]] const State& intern(std::uint64_t reuse_key, std::string_view bytes);

  /// Records `out`, the outcome of slice `key` run from `from`, whose
  /// processor then saved `post`: interns `post` under from's machine as
  /// the outcome's next state and appends it to from's row, published at
  /// once, with a copy of `posts` (null = none captured) as its posts.
  /// First writer wins: when `key` is already in the row, the row is left
  /// as it is. Returns the row's outcome for `key`. `from` must come from
  /// this cache. Safe to call concurrently with find() and other records.
  const SliceOutcome& record(const State& from, const SliceKey& key, SliceOutcome out,
                             std::string_view post, const energy::PostLog* posts = nullptr);

  /// The miss step of both callers: runs slice `key` exact on `proc`, which
  /// stands at `from` (Processor::restore) with the slice's placement
  /// installed, capturing its ledger posts into `posts` when that is not
  /// null; saves the state it leaves into `save` and records the outcome,
  /// posts included. Returns the row's outcome for `key`.
  const SliceOutcome& run_exact(const State& from, const SliceKey& key, sys::Processor& proc,
                                ByteWriter& save, energy::PostLog* posts = nullptr);

  [[nodiscard]] Stats stats() const;

  /// The process-wide instance FleetSimulator uses by default.
  [[nodiscard]] static OutcomeCache& process_cache();

 private:
  /// intern() with mu_ held.
  State& intern_locked(std::uint64_t reuse_key, std::string_view bytes);

  mutable std::mutex mu_;  ///< guards states_, posts_ and every row's writes
  /// Per machine, its states keyed by a view of their own blob.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::string_view, std::unique_ptr<State>>>
      states_;
  /// The recorded outcomes' post logs (deque: appends never move them).
  std::deque<energy::PostLog> posts_;
};

}  // namespace hhpim::fleet
