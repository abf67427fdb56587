// The streaming fleet simulator: N independent devices sharded across a
// fixed worker pool.
//
// Execution model (mirrors exp::Runner, at shard granularity):
//
//   * Devices are grouped into fixed-size shards (FleetOptions::
//     shard_size). Shard boundaries depend only on the spec and options —
//     never on the thread count.
//   * Workers claim one shard index at a time from a shared atomic counter
//     (hhpim::claim_each), expand each device of the shard into a reused
//     DeviceSpec (fleet::DeviceExpander — no fleet-sized spec vector is ever
//     built), run the devices in device order, and accumulate one
//     FleetAggregate per shard. Shard aggregate slots are
//     cache-line aligned so sibling workers never false-share a line, and
//     never more workers than shards are spawned (hhpim::resolve_workers).
//   * run(), run_to() and resume() are one engine: run() is a single
//     segment run to completion. Every device advances through the same
//     per-slice step on its fleet::DeviceProgress (fleet/device.hpp) —
//     charging, hysteresis, tier pick, battery clamp, lifecycle — whether
//     the slice runs on a sys::Processor or replays from the memo.
//   * With FleetOptions::memoize_devices (default), every slice of every
//     call — run, run_to and resume alike — is first looked up in the row
//     of the device's state in the device-level outcome memo
//     (fleet::OutcomeCache): a hit advances the device to the outcome's next
//     state without touching a sys::Processor. A miss makes a leased
//     processor live at the device's state (reset at step 0, else the
//     state's blob loaded) and runs just that slice exact, recording the
//     outcome and its next state for every device, published at once.
//     Replayed aggregate/JSONL output is byte-identical to the exact path
//     (docs/PERF.md "Device-level memoization", "Memo replay inside
//     segments").
//   * With the memo on, a final segment also replays whole devices: a
//     worker keys each device it starts in the call on its run inputs
//     (walk_run_inputs), records the run of a key's second device (its
//     result and per-slice busy time and energy) and replays later devices
//     of that key from the record — their slices feed the aggregate in
//     device order, and only id and seed are patched into the result. Shapes
//     that draw random numbers are never keyed: each device's seed makes it
//     distinct (docs/PERF.md "Whole-device replay").
//   * When FleetOptions::shard_dir is set, each worker streams its shard's
//     device lines to <dir>/shard-NNNNN.jsonl as the shard completes — a
//     fleet of millions never holds all results in memory
//     (keep_results = false drops them after the shard file is written).
//   * After the pool joins, shard aggregates merge in shard-index order.
//
// Determinism: device results depend only on the DeviceSpec (loads are
// generated from its scenario config; the only shared object is the
// placement::LutCache, whose entries are immutable), shard contents depend
// only on shard index, and the merge order is fixed — so JSONL shards,
// to_jsonl() and summary_to_json() are byte-identical at any thread count.
// tests/test_oracle.cpp pins this against every execution strategy.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fleet/aggregate.hpp"
#include "fleet/device.hpp"
#include "fleet/snapshot.hpp"
#include "fleet/spec.hpp"

namespace hhpim::placement {
class LutCache;  // placement/lut_cache.hpp — only a pointer is stored here
}

namespace hhpim::fleet {

class OutcomeCache;  // fleet/outcome_cache.hpp

struct FleetOptions {
  /// Worker threads. 0 = one per CPU the process may run on (hhpim::
  /// resolve_threads, which honours the affinity mask); 1 = run inline.
  unsigned threads = 0;
  /// Devices per shard: the unit of work claiming, JSONL file granularity
  /// and aggregate merging. Smaller shards balance load better; larger
  /// shards mean fewer files. Must be >= 1 (clamped).
  std::size_t shard_size = 256;
  /// The placement-LUT cache the fleet's devices share: devices with the
  /// same model/arch resolve to one build (not owned; must outlive the
  /// run). nullptr = the process-wide placement::LutCache::process_cache().
  placement::LutCache* lut_cache = nullptr;
  /// When non-empty: write <shard_dir>/shard-NNNNN.jsonl while the run
  /// progresses (the directory must exist; open/write failures are
  /// reported as std::runtime_error after all shards finish). Each worker
  /// formats its shard into a private memory buffer and writes the file in
  /// one call — stream handoff never blocks a sibling worker.
  std::string shard_dir{};
  /// Retain per-device results in FleetResult::devices. Turn off for very
  /// large fleets streamed to shard files — aggregates are kept either way.
  bool keep_results = true;
  /// Device-level outcome memoization (fleet::OutcomeCache), in run(),
  /// run_to() and resume(): a slice whose (processor state, mode, load) key
  /// is warm replays through the per-slice step without running a
  /// Processor; a miss runs that one slice exact and records it for later
  /// devices. In a final segment it also replays whole devices whose run
  /// inputs repeat (walk_run_inputs). Off = the exact reference path (every
  /// slice on a Processor). Output is byte-identical with memoization on or
  /// off, segmented or not, at any thread count (pinned by
  /// tests/test_oracle.cpp); only wall-clock changes.
  bool memoize_devices = true;
  /// Cache used when `memoize_devices` (not owned; must outlive the run).
  /// nullptr = the process-wide fleet::OutcomeCache::process_cache().
  OutcomeCache* outcome_cache = nullptr;
};

/// Per-device results in device-id order, in one heap block. DeviceResult
/// is trivially copyable and destructible, so the block is never
/// value-initialized: a run allocates it raw through a Builder and its shard
/// workers construct each slot in place, so no thread writes the whole
/// fleet's results before the workers start.
class DeviceResults {
 public:
  static_assert(std::is_trivially_copyable_v<DeviceResult> &&
                std::is_trivially_destructible_v<DeviceResult>);

  /// Uninitialized storage for `n` results, each constructed once by
  /// set(). Only finish() makes them readable, so a run that throws frees
  /// the block without reading a slot.
  class Builder {
   public:
    explicit Builder(std::size_t n) : block_(allocate(n)), size_(n) {}
    /// Constructs slot i (i < n; each slot once). Distinct slots may be set
    /// from distinct threads.
    void set(std::size_t i, const DeviceResult& r) { std::construct_at(block_.get() + i, r); }
    /// The results. Precondition: every slot was set.
    [[nodiscard]] DeviceResults finish() && { return DeviceResults{std::move(block_), size_}; }

   private:
    friend class DeviceResults;
    struct Free {
      void operator()(DeviceResult* p) const { ::operator delete(p); }
    };
    using Block = std::unique_ptr<DeviceResult[], Free>;
    static Block allocate(std::size_t n);

    Block block_;
    std::size_t size_ = 0;
  };

  DeviceResults() = default;
  /// A copy of `results`: how tests and library callers build a list by hand.
  explicit DeviceResults(std::span<const DeviceResult> results);
  DeviceResults(const DeviceResults& other) : DeviceResults(std::span{other.begin(), other.end()}) {}
  DeviceResults& operator=(const DeviceResults& other);
  /// A moved-from list is empty.
  DeviceResults(DeviceResults&& other) noexcept
      : block_(std::move(other.block_)), size_(std::exchange(other.size_, 0)) {}
  DeviceResults& operator=(DeviceResults&& other) noexcept {
    block_ = std::move(other.block_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] DeviceResult* begin() { return block_.get(); }
  [[nodiscard]] DeviceResult* end() { return block_.get() + size_; }
  [[nodiscard]] const DeviceResult* begin() const { return block_.get(); }
  [[nodiscard]] const DeviceResult* end() const { return block_.get() + size_; }
  [[nodiscard]] DeviceResult& operator[](std::size_t i) { return block_[i]; }
  [[nodiscard]] const DeviceResult& operator[](std::size_t i) const { return block_[i]; }

 private:
  DeviceResults(Builder::Block block, std::size_t size) : block_(std::move(block)), size_(size) {}

  Builder::Block block_;
  std::size_t size_ = 0;
};

struct FleetResult {
  std::string fleet_name;
  /// Per-device results in device-id order (empty when !keep_results).
  DeviceResults devices;
  /// The run's model-name table: DeviceResult::model_index points in here
  /// (the FleetSpec's resolved model population, in order). Interning the
  /// name at the spec level is what keeps DeviceResult allocation-free.
  std::vector<std::string> model_names;
  FleetAggregate aggregate;
  std::size_t shard_count = 0;
  std::size_t shard_size = 0;
  /// The run's resolved thread count (hhpim::resolve_threads of
  /// FleetOptions::threads): write_jsonl and to_jsonl format on that many
  /// threads, capped at the chunk count. A hand-built result stays serial.
  unsigned threads = 1;
  /// LUT-cache economy of this run: `builds` counts LUT keys the run needed
  /// that the cache did not hold when it started (probed before any
  /// processor exists — exactly one per new key regardless of thread count),
  /// `shared` the HH-PIM devices whose LUT came from a shared build
  /// (HH-PIM devices - builds). Both are deterministic at any thread count.
  /// builds ≪ devices is the fleet's whole economy.
  std::uint64_t lut_builds = 0;
  std::uint64_t lut_shared = 0;

  /// Device-memo economy of this call (zero when memoization is off; for
  /// resume(), the final segment only). The run tallies its own work per
  /// shard, so these count exactly this call's work, whatever else shares
  /// the cache: memo_replayed_devices + memo_exact_devices is the devices it
  /// advanced. A device replayed whole (FleetSimulator's whole-device
  /// replay) makes no lookup, so memo_hits + memo_misses is the slices this
  /// call executed minus memo_device_replay_slices, not every executed
  /// slice. The replayed/exact and hit/miss splits are deterministic at one
  /// thread but vary with worker interleaving and cache warmth — which is
  /// exactly why none of these appear in summary_to_json() (the summary must
  /// stay byte-identical at any thread count and with the memo toggled).
  std::uint64_t memo_replayed_devices = 0;  ///< every slice a memo hit, or replayed whole
  std::uint64_t memo_exact_devices = 0;     ///< at least one slice run exact
  std::uint64_t memo_hits = 0;              ///< lookups that found an outcome
  std::uint64_t memo_misses = 0;            ///< lookups that ran the slice exact
  /// Devices replayed whole from their worker's record of an earlier device
  /// with the same run inputs (counted in memo_replayed_devices too), and
  /// the slices they replayed.
  std::uint64_t memo_device_replays = 0;
  std::uint64_t memo_device_replay_slices = 0;

  /// One whitespace-free JSON object per device, '\n'-separated (JSON
  /// Lines). Byte-identical to the concatenation of the run's shard files,
  /// at any `threads`: one formatter serves both. It builds a line template
  /// once per call (each model's escaped "model" text and the constant text
  /// between values), so a line copies that text and formats only its
  /// values; a line is sized from its escaped model name plus a fixed bound
  /// per number, so any name length fits. Shard-sized chunks are formatted
  /// on `threads` threads into a ring of ~2×threads reused strings (memory
  /// is bounded by a few chunks, not by the fleet) and written strictly in
  /// chunk order by the calling thread, the only one that touches `os`.
  /// Once `os` fails the remaining chunks are not formatted. A model_index
  /// outside `model_names` throws std::out_of_range naming the device.
  void write_jsonl(std::ostream& os) const;
  /// write_jsonl's chunk pipeline, appending into one string.
  [[nodiscard]] std::string to_jsonl() const;

  /// Fleet-wide aggregate metrics (counters, energy/SoC summaries,
  /// p50/p95/p99 of slice busy fraction and per-slice energy).
  void write_summary_json(std::ostream& os) const;
  [[nodiscard]] std::string summary_to_json() const;
};

class FleetSimulator {
 public:
  explicit FleetSimulator(FleetOptions options = {});

  /// Expands and executes the fleet. Propagates the exception of the
  /// failing shard of the lowest index, the same at any thread count (other
  /// shards still complete).
  [[nodiscard]] FleetResult run(const FleetSpec& spec) const;

  /// Checkpointed execution: advances the fleet through global slices
  /// [from ? from->next_slice : 0, end_slice) and returns the fleet state
  /// at that boundary. `end_slice` must lie in (start, spec.slices]; the
  /// trailing drain slices belong to the final segment (resume). Segments
  /// replay from the memo like run() — a live device stops at a checkpoint
  /// holding its shared processor blob — bin their slices
  /// into the snapshot's slice histograms and buffer each device's busy
  /// times in its record (a fleet::BusyColumn, one byte per slice); no
  /// JSONL or other aggregates are produced until resume(), which feeds
  /// each stored column to busy_us before the device's next slice.
  /// The snapshot is pinned to FleetSpec::content_digest() — run_to/resume
  /// throw std::runtime_error on a digest mismatch, a device that does not
  /// match its spec or stand at the snapshot's slice, a device whose busy
  /// samples differ in number from its executed slices, or carried
  /// histograms whose shape differs from the spec's or whose totals differ
  /// from the slices executed; std::invalid_argument on a bad window.
  [[nodiscard]] FleetSnapshot run_to(const FleetSpec& spec, int end_slice,
                                     const FleetSnapshot* from = nullptr) const;

  /// Final segment: resumes `from` and runs every device to completion
  /// (remaining arrival slices plus the drain slices) — the same engine as
  /// run(), which is this call with an empty snapshot. The FleetResult —
  /// devices, aggregate, JSONL shard files, summary JSON, lut_builds/
  /// lut_shared — is byte-identical to run() on the same spec and options
  /// at any thread count, with a warm memo or a cold one (a fresh process:
  /// each live device loads its blob at its first miss — std::runtime_error
  /// when the blob does not load — and its exact slices re-seed the memo).
  [[nodiscard]] FleetResult resume(const FleetSpec& spec,
                                   const FleetSnapshot& from) const;

  [[nodiscard]] const FleetOptions& options() const { return options_; }
  /// The cache this run will use (never null).
  [[nodiscard]] placement::LutCache* resolve_lut_cache() const;
  /// The device-outcome memo this run will use (nullptr when memoization
  /// is off).
  [[nodiscard]] OutcomeCache* resolve_outcome_cache() const;

 private:
  /// The one engine of run/run_to/resume: a segment over global slices
  /// [from ? from->next_slice : 0, end_slice), or to completion when
  /// `final_out` is non-null (end_slice ignored). Owns shard claiming, the
  /// per-shard aggregate slots, JSONL shard streaming, the ordered merge and
  /// LUT-build accounting. Returns the end-of-segment snapshot (meaningless
  /// for the final segment; device-less when `from` is null too — run()).
  FleetSnapshot drive(const FleetSpec& spec, int end_slice,
                      const FleetSnapshot* from, FleetResult* final_out) const;

  FleetOptions options_;
};

}  // namespace hhpim::fleet
