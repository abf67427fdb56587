// Energy ledger: the single place where every joule in a simulation is
// accounted. Components register once, then post dynamic energy per event and
// leakage per powered interval. Benches query totals and per-category
// breakdowns. A capture hands a slice's whole post sequence to a caller that
// replays it into a bare cell array later (exp::Runner's slice memo).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace hhpim::energy {

/// What kind of work consumed the energy.
enum class Activity : std::uint8_t {
  kMemRead = 0,
  kMemWrite,
  kCompute,
  kTransfer,   // inter-module / NoC data movement
  kControl,    // host-core instruction energy
  kLeakage,
  kCount,
};

[[nodiscard]] const char* to_string(Activity a);

/// One recorded ledger posting: the flat accumulator cell it targeted and the
/// exact amount added. Replaying a recorded sequence repeats the identical
/// double additions in the identical order, so the final accumulator bits
/// match a scalar re-execution exactly — the property the batched
/// steady-state kernel (sys::Processor::run_tasks_batched) is built on.
struct RecordedPost {
  std::uint32_t cell = 0;  ///< index into the ledger's accumulator array
  double pj = 0.0;
};

/// A captured post sequence (EnergyLedger::begin_capture) as runs: each run
/// is a stretch of posts applied `times` times in a row. A replay() is one
/// run stored once; the adds around it are runs applied once. So a slice of
/// n identical tasks costs about three tasks' posts, not n.
struct PostLog {
  struct Run {
    std::uint32_t begin = 0;  ///< [begin, end) in `posts`
    std::uint32_t end = 0;
    int times = 1;
  };
  std::vector<RecordedPost> posts;
  std::vector<Run> runs;

  /// Appends one post, applied once.
  void add(const RecordedPost& p) {
    if (runs.empty() || runs.back().times != 1) {
      const auto at = static_cast<std::uint32_t>(posts.size());
      runs.push_back({at, at, 1});
    }
    posts.push_back(p);
    ++runs.back().end;
  }
  /// Appends `seq`, applied `times` times in a row.
  void add_repeated(const std::vector<RecordedPost>& seq, int times) {
    const auto at = static_cast<std::uint32_t>(posts.size());
    posts.insert(posts.end(), seq.begin(), seq.end());
    runs.push_back({at, static_cast<std::uint32_t>(posts.size()), times});
  }
  void clear() {
    posts.clear();
    runs.clear();
  }
};

/// Opaque handle returned by EnergyLedger::register_component.
class ComponentId {
 public:
  ComponentId() = default;
  [[nodiscard]] bool valid() const { return idx_ != kInvalid; }

 private:
  friend class EnergyLedger;
  explicit ComponentId(std::uint32_t idx) : idx_(idx) {}
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t idx_ = kInvalid;
};

class EnergyLedger {
 public:
  /// Registers a named component (e.g. "hp0.sram"). Names need not be unique,
  /// but unique names make breakdown tables readable.
  ComponentId register_component(std::string name);

  /// Posts dynamic energy consumed by one or more events.
  void add(ComponentId c, Activity a, Energy e);

  // --- Post recording / replay (batched-execution fast path) ---------------
  // While recording, every add() also appends its (cell, amount) to `sink`.
  // replay() re-applies a recorded sequence `repeats` times with plain
  // double additions — bit-identical to calling add() again with the same
  // arguments, at a fraction of the cost of re-simulating the work that
  // produced the posts. Single-threaded, like the ledger itself.

  /// Starts recording into `sink` (not owned; must outlive the recording).
  /// Recording while already recording replaces the sink.
  void begin_recording(std::vector<RecordedPost>* sink) { record_ = sink; }
  void end_recording() { record_ = nullptr; }

  /// Re-applies `posts` `repeats` times, preserving per-cell add order.
  void replay(const std::vector<RecordedPost>& posts, int repeats);

  // --- Whole-slice capture (exp::Runner's slice memo) ----------------------
  // A capture logs every post until end_capture(), in post order: each
  // add(), whether or not a recording is open, and each replay() as one
  // repeated run. apply() of the log to a copy of the cells leaves them
  // bit-identical to this ledger's, without re-running the work that
  // posted it.

  /// Starts capturing into `log` (not owned; must outlive the capture).
  void begin_capture(PostLog* log) { capture_ = log; }
  void end_capture() { capture_ = nullptr; }

  // --- Bare accumulator cells ----------------------------------------------
  // A run that replays captured posts keeps its own cell array, laid out
  // like this ledger's (cell_count() doubles, zero at the start) and read
  // through the same sums as the ledger's totals.

  [[nodiscard]] std::size_t cell_count() const { return pj_.size(); }
  /// Cell-only apply: adds the logged posts to `cells` in post order.
  /// Unlike replay(), it touches no window.
  static void apply(std::span<double> cells, const PostLog& log);
  /// total() of a ledger whose accumulators hold `cells`.
  [[nodiscard]] static Energy cells_total(std::span<const double> cells);
  /// total(a) of a ledger whose accumulators hold `cells`.
  [[nodiscard]] static Energy cells_total(std::span<const double> cells, Activity a);

  // --- Slice-energy window -------------------------------------------------
  // A single running sum of every post (add or replay) since the last
  // begin_window(), accumulated from 0.0. Unlike `total_after -
  // total_before` over the cumulative cells, the window is
  // *history-independent*: two executions posting the same amounts in the
  // same order read identical window bits no matter what the accumulators
  // already hold (cumulative deltas round differently with the accumulated
  // magnitude). sys::Processor::run_slice reports slice energy from this
  // window, which is what lets the fleet's device-outcome memo
  // (fleet::OutcomeCache) replay a recorded slice byte-identically on
  // devices with different energy histories.

  /// Zeroes the window. Call at the start of the interval to measure.
  void begin_window() { window_pj_ = 0.0; }
  /// Everything posted since begin_window().
  [[nodiscard]] Energy window_total() const { return Energy::pj(window_pj_); }

  /// Posts leakage: power integrated over a powered-on interval.
  void add_leakage(ComponentId c, Power p, Time duration) {
    add(c, Activity::kLeakage, p * duration);
  }

  [[nodiscard]] Energy total() const;
  [[nodiscard]] Energy total(Activity a) const;
  [[nodiscard]] Energy component_total(ComponentId c) const;
  [[nodiscard]] Energy component_total(ComponentId c, Activity a) const;
  /// Sum over all activities except leakage.
  [[nodiscard]] Energy dynamic_total() const;

  [[nodiscard]] std::size_t component_count() const { return names_.size(); }
  [[nodiscard]] const std::string& component_name(std::size_t idx) const { return names_[idx]; }
  [[nodiscard]] Energy component_total_by_index(std::size_t idx, Activity a) const;

  /// Renders a per-component, per-activity breakdown table.
  [[nodiscard]] std::string breakdown() const;

  void reset();

 private:
  static constexpr std::size_t kActivities = static_cast<std::size_t>(Activity::kCount);
  /// add()'s post to the open recording and capture (the unlikely branch).
  void log_post(const RecordedPost& post);
  std::vector<std::string> names_;
  std::vector<double> pj_;  // names_.size() * kActivities, row-major
  double window_pj_ = 0.0;  // posts since begin_window(), summed from zero
  std::vector<RecordedPost>* record_ = nullptr;  // active recording sink, if any
  PostLog* capture_ = nullptr;                   // active capture log, if any
};

/// Tracks the powered intervals of one leaky component and posts the
/// integrated leakage to the ledger. Power-gating a component simply means
/// calling power_off(); non-volatile memories keep their contents, volatile
/// ones must be told they lost them by the owner.
class LeakageTracker {
 public:
  LeakageTracker(EnergyLedger* ledger, ComponentId id, Power leakage);

  /// Marks the component powered from `now` on. No-op if already on.
  void power_on(Time now);
  /// Marks the component gated from `now` on, accumulating the elapsed
  /// on-interval. No-op if already off.
  void power_off(Time now);
  /// Closes the current interval at `now` (call at end of simulation or when
  /// reading totals mid-run). The component stays in its current state.
  void settle(Time now);

  /// Changes the leakage power from `now` on (e.g. a macro powering a subset
  /// of its banks). Settles the elapsed interval at the old power first.
  void set_power(Power leakage, Time now);

  /// Steady-state advance (batched execution): shifts the open-interval
  /// anchor by `anchor_shift` (no-op while off) and credits `extra_on` of
  /// already-posted on-time. The caller has replayed the matching leakage
  /// posts through EnergyLedger::replay; this keeps the tracker's integer
  /// state consistent with them. Exact — all quantities are integer ps.
  void fast_forward(Time anchor_shift, Time extra_on) {
    if (on_) on_since_ += anchor_shift;
    total_on_ += extra_on;
  }

  /// Returns the tracker to its just-constructed state at `leakage` power:
  /// off, zero accumulated on-time, nothing posted. Part of
  /// sys::Processor::reset() — callers must reset the ledger separately.
  void reset(Power leakage) {
    leakage_ = leakage;
    on_ = false;
    on_since_ = Time::zero();
    total_on_ = Time::zero();
  }

  /// State walk (common/state_visitor.hpp): the power state and, while on,
  /// the open-interval anchor relative to `now`. Loading posts nothing to
  /// the ledger. Leakage power is derived (the owner's config, or
  /// mem::Bank's gating) and on-time totals are history, so both stay out.
  template <class V>
  void visit_state(V& v, Time now) {
    v.flag(on_);
    if (on_) v.relative(on_since_, now);
  }

  /// Checkpoint restore of a derived leakage power: replaces it without
  /// settling the open interval (mem::Bank's load).
  void restore_leakage(Power leakage) { leakage_ = leakage; }

  [[nodiscard]] bool is_on() const { return on_; }
  [[nodiscard]] Time total_on_time() const { return total_on_; }
  /// Start of the currently-open leakage interval (last power_on / settle /
  /// set_power while on). Stale while off. The batched kernel diffs two
  /// anchor readings to learn whether a steady-state interval touched this
  /// tracker (per-burst gating advances the anchor every period) or left it
  /// running (retention at constant power — anchor frozen until the final
  /// settle), and shifts by exactly that delta in fast_forward().
  [[nodiscard]] Time anchor() const { return on_since_; }

 private:
  EnergyLedger* ledger_;
  ComponentId id_;
  Power leakage_;
  bool on_ = false;
  Time on_since_ = Time::zero();
  Time total_on_ = Time::zero();
};

}  // namespace hhpim::energy
