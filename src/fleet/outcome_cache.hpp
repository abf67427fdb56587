// Process-wide, thread-safe memo of whole-device slice outcomes.
//
// Most devices of a fleet share (arch config, model, placement-decision
// stream) and differ only in seed jitter and battery trajectory. A slice's
// outcome — energy requested, busy/movement time, deadline flag, and the
// processor state it leaves behind — is a pure function of the processor's
// behavior-relevant state at the slice boundary (sys::Processor::
// state_digest), the placement mode the adaptation loop picked, and the
// number of buffered tasks. Battery state never enters: the SoC only
// influences a slice *through* the hysteresis mode decision, which is an
// exact field of the key, and the drain clamp is re-applied at replay time
// (exhaustion slices included). That is what lets the fleet replay memoized
// outcomes byte-identically to the scalar Device::run path (pinned by
// tests/test_oracle.cpp: cold, warm, shared and segmented memos).
//
// Key anatomy (docs/PERF.md "Device-level memoization"):
//   reuse_key  sys::processor_reuse_key(config, model) — which machine
//   state      Processor::state_digest() before the slice — where it is
//   slo_ps     the device's latency SLO (the frontier the policy picks from)
//   n_tasks    the exact buffered-task count (the "load bucket")
//   mode       fleet::DeviceMode for the slice (the "SoC bucket")
//   tier       fleet::FrontierTier pinned for the slice (the "SLO bucket")
// The buckets are exact, not approximations: two devices fall into the same
// bucket only when the simulator would compute bit-identical slices for
// them, so memoization changes wall-clock, never output.
//
// Every outcome also carries its post-state's processor blob
// (Processor::save_state), interned by exact bytes: a fleet converges onto
// a handful of states, so a few dozen blobs serve every outcome. The blob
// is what lets a replayed device stop at a checkpoint, or fall back to the
// exact path mid-stream, without rerunning from step 0 (docs/PERF.md "Memo
// replay inside segments").
//
// Concurrency: completed outcomes live in an immutable snapshot map
// published through an atomic pointer. A hit is one acquire load plus a hash
// probe — no lock and no shared write: lookup() is const and counts nothing
// (the fleet tallies its hits per shard), and the published pointer sits on
// its own cache line, so neither a sibling's hit nor a recorder's blob
// intern invalidates the line every reader loads (docs/PERF.md
// "Contention-free memo hits"). Inserts arrive in per-shard batches (one
// copy-on-write republish per batch, not per slice), first writer wins per
// key; racing inserts of the same key are benign because honest writers
// compute identical values. A recorder interns a slice's blob (intern_blob,
// under the lock) before the slice's outcome is published, so every outcome
// a lookup returns already points at an interned blob. Superseded snapshots
// are retired, not freed, and interned blobs are never dropped until the
// cache is destroyed, so a pointer returned by lookup() or intern_blob() —
// and the blob it points at — stays valid for the cache's lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/align.hpp"

namespace hhpim::fleet {

/// Value-semantic memo key; equality compares every field, so outcomes are
/// never shared across distinct machines, states, loads, modes or SLO
/// placements.
///
/// `slo_ps`/`tier` exist because the SLO policy's frontier pick is decided
/// *before* the slice runs: on the first slice the `state` digest predates
/// the override the tier is about to install, so without these fields two
/// devices with different SLOs (or different tiers at the same state) would
/// share a bucket and replay each other's outcomes. Both are 0 whenever the
/// device has no SLO, which keeps pre-SLO keys' contents unchanged.
struct SliceOutcomeKey {
  std::uint64_t reuse_key = 0;  ///< sys::processor_reuse_key(config, model)
  std::uint64_t state = 0;      ///< Processor::state_digest() before the slice
  std::int64_t slo_ps = 0;      ///< DeviceSpec::latency_slo_ps (0 = no SLO)
  std::uint32_t n_tasks = 0;    ///< buffered tasks executed this slice
  std::uint8_t mode = 0;        ///< fleet::DeviceMode for the slice
  std::uint8_t tier = 0;        ///< fleet::FrontierTier pinned (0 when no SLO)

  [[nodiscard]] bool operator==(const SliceOutcomeKey&) const = default;

  /// Word-wise multiply–xorshift fold over the 64-bit fields, with
  /// n_tasks, mode and tier packed into one word. Each step is a bijection
  /// of the running value for a fixed word and of the word for a fixed
  /// running value, so keys that differ in exactly one field always hash
  /// apart. In-memory only: the hash is never persisted, so it may change
  /// freely (the persisted digests use Fnv1a, common/hash.hpp).
  struct Hash {
    [[nodiscard]] std::size_t operator()(const SliceOutcomeKey& k) const {
      std::uint64_t h = 0;
      const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
      };
      mix(k.reuse_key);
      mix(k.state);
      mix(static_cast<std::uint64_t>(k.slo_ps));
      mix(static_cast<std::uint64_t>(k.n_tasks) |
          static_cast<std::uint64_t>(k.mode) << 32 |
          static_cast<std::uint64_t>(k.tier) << 40);
      return static_cast<std::size_t>(h);
    }
  };
};

/// A Processor::save_state blob, shared and immutable: devices (and memo
/// outcomes) at one processor state share one copy of its bytes.
using StateBlob = std::shared_ptr<const std::string>;

/// Everything a replayed slice contributes to a device run. `energy_pj` is
/// the *requested* slice energy (sys::SliceStats::energy) — the battery's
/// drain clamp is re-applied per device at replay time, so one outcome
/// serves devices with any charge, including the one it exhausts.
struct SliceOutcome {
  double energy_pj = 0.0;
  std::int64_t busy_ps = 0;
  std::int64_t movement_ps = 0;
  std::uint64_t post_state = 0;   ///< state_digest() after the slice
  std::uint64_t host_cycles = 0;  ///< host-core cycles (0 when host disabled)
  bool deadline_violated = false;
  /// save_state() after the slice (post_state's bytes), as returned by the
  /// cache's intern_blob(). Null only in hand-built entries that no device
  /// resumes from.
  const StateBlob* blob = nullptr;
};

/// Thread-safe memo of slice outcomes. One instance is process-wide
/// (process_cache()); tests and benchmarks construct private instances.
class OutcomeCache {
 public:
  struct Stats {
    std::uint64_t insertions = 0;  ///< keys actually added (first writer only)
    std::size_t entries = 0;       ///< keys in the current snapshot
    std::size_t blobs = 0;         ///< distinct post-state blobs interned
  };

  OutcomeCache() = default;
  OutcomeCache(const OutcomeCache&) = delete;
  OutcomeCache& operator=(const OutcomeCache&) = delete;
  ~OutcomeCache() = default;

  /// Lock-free and read-only: the outcome memoized for `key`, or nullptr.
  /// Callers count their own hits and misses. The pointer stays valid until
  /// the cache is destroyed (snapshots are retired, never freed — memory
  /// stays proportional to insert batches actually published, which state
  /// convergence keeps small).
  [[nodiscard]] const SliceOutcome* lookup(const SliceOutcomeKey& key) const;

  /// Publishes recorded (key, outcome) pairs: one copy-on-write republish
  /// for the whole batch, first writer wins per key, no republish when every
  /// key is already present. Safe to call concurrently with lookups and
  /// other inserts.
  void insert_batch(
      const std::vector<std::pair<SliceOutcomeKey, SliceOutcome>>& entries);

  /// The cache's one copy of a processor blob with these bytes, added when
  /// absent. Exact: keyed by the bytes themselves, not by a digest. Called
  /// once per exact slice a recorder runs; safe to call concurrently.
  [[nodiscard]] const StateBlob* intern_blob(std::string_view bytes);

  [[nodiscard]] Stats stats() const;

  /// The process-wide instance FleetSimulator uses by default.
  [[nodiscard]] static OutcomeCache& process_cache();

 private:
  /// Immutable map of memoized outcomes. Never mutated after publication —
  /// mutation copies it and publishes the copy.
  using ReadyMap =
      std::unordered_map<SliceOutcomeKey, SliceOutcome, SliceOutcomeKey::Hash>;

  /// Publishes `next` as the current snapshot (mu_ held). The superseded
  /// snapshot is retired — kept alive until destruction so concurrent
  /// lock-free readers (and held outcome pointers) stay safe.
  void publish_locked(std::unique_ptr<const ReadyMap> next);

  /// Current snapshot; readers load-acquire and never lock. Owned by
  /// retired_ (every snapshot ever published lives there). Alone on its
  /// cache line: the members below are written on every exact slice.
  alignas(kCacheLine) std::atomic<const ReadyMap*> ready_{nullptr};

  /// Guards everything below and snapshot swaps.
  alignas(kCacheLine) mutable std::mutex mu_;
  std::vector<std::unique_ptr<const ReadyMap>> retired_;
  /// Interned post-state blobs, keyed by a view of their own bytes. Map
  /// nodes never move and are never erased, so a pointer to a node's value
  /// stays valid.
  std::unordered_map<std::string_view, StateBlob> blobs_;
  std::uint64_t insertions_ = 0;
};

}  // namespace hhpim::fleet
