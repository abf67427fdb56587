// Per-time-slice inference-count generators: the six workload scenarios of
// Fig. 4 plus extended shapes (ramp, burst-decay, Poisson arrivals, trace
// replay) used by the experiment-runner grids and the fleet simulator.
//
// Everything here is a pure function of its arguments (randomized shapes
// draw from common/rng.hpp seeded by ScenarioConfig::seed, bit-identical
// across hosts and standard libraries) — safe to call concurrently, and the
// reason a load trace never needs to be stored: regenerating it from the
// config is exact. A LoadStream yields one trace slice by slice, so a
// consumer that runs a trace in pieces (the fleet's checkpointed segments)
// generates it once, not once per piece; generate() drains one. generate()
// is O(slices); file I/O helpers are O(lines).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace hhpim::workload {

enum class Scenario : std::uint8_t {
  kLowConstant = 0,           ///< Case 1
  kHighConstant,              ///< Case 2
  kPeriodicSpike,             ///< Case 3
  kPeriodicSpikeFrequent,     ///< Case 4
  kPulsing,                   ///< Case 5
  kRandom,                    ///< Case 6
  // --- extended shapes (not in the paper's Fig. 4) -------------------------
  kRamp,                      ///< monotone low -> high over the run
  kBurstDecay,                ///< periodic bursts decaying geometrically
  kPoisson,                   ///< independent Poisson arrivals per slice
  kTrace,                     ///< replay an explicit per-slice trace
};

[[nodiscard]] const char* to_string(Scenario s);
[[nodiscard]] const char* case_name(Scenario s);  ///< "Case 1" .. "Case 6"; extended shapes get their name
/// Inverse of to_string over every scenario (paper + extended); nullopt for
/// an unknown name. The single name parser shared by the experiment-grid and
/// fleet CLIs — add new shapes here, not in per-binary copies.
[[nodiscard]] std::optional<Scenario> from_string(std::string_view name);
[[nodiscard]] std::array<Scenario, 6> all_scenarios();       ///< the paper's Fig. 4 set
[[nodiscard]] std::array<Scenario, 4> extended_scenarios();  ///< ramp, burst-decay, Poisson, trace

struct ScenarioConfig {
  int slices = 50;        ///< paper: 50 time slices per run
  int low = 2;            ///< inferences/slice at low load
  int high = 10;          ///< paper: up to 10 inferences per slice at peak
  int spike_period = 10;  ///< Case 3: one spike slice every `spike_period`
  int spike_period_frequent = 4;  ///< Case 4
  int pulse_width = 5;    ///< Case 5: alternate `pulse_width` high / low slices
  std::uint64_t seed = 0x5eed2025;  ///< Case 6 / Poisson randomness
  // --- extended-shape parameters -------------------------------------------
  int burst_period = 8;      ///< kBurstDecay: a fresh burst every `burst_period`
  double burst_decay = 0.5;  ///< kBurstDecay: geometric decay factor in (0, 1]
  double poisson_mean = 4.0; ///< kPoisson: mean arrivals per slice (clamped to high)
  std::string trace_path{};  ///< kTrace: file to replay (one count per line)
  std::vector<int> trace{};  ///< kTrace: inline trace (used when trace_path empty)
};

/// Per-slice inference counts for a scenario (all counts >= 0; randomized
/// shapes are capped at cfg.high). Preconditions, enforced with
/// std::invalid_argument: slices > 0 and 0 <= low <= high; kBurstDecay
/// needs burst_period > 0 and burst_decay in (0, 1]; kPoisson needs
/// poisson_mean in (0, 500]; kTrace needs trace_path or a non-empty trace
/// of non-negative counts (the trace also defines the run length —
/// cfg.slices is ignored for it).
/// kTrace replays its trace; every other shape drains a LoadStream{s, cfg}.
[[nodiscard]] std::vector<int> generate(Scenario s, const ScenarioConfig& cfg = {});

/// A cursor over one generated load trace: next() yields the loads of
/// generate(s, cfg) rotated left by `phase` slices, arrival k multiplied by
/// envelope[(join + k) % envelope.size()] and rounded to nearest
/// (int(load * m + 0.5)) when `envelope` is non-empty — bit for bit what
/// materializing, rotating and scaling the trace gives (a negative `join`
/// counts as 0).
///
/// Its saved state is only what cannot be recomputed: the generator words of
/// the randomized shapes (kRandom, kPoisson; all zero for the others). The
/// position k fixes the rest, so (s, cfg, phase, join, envelope, k, state())
/// rebuilds the cursor exactly, in O(1) — O(min(burst_period, slices)) for
/// kBurstDecay, whose per-phase loads are tabled. Per-shape constants (the
/// Poisson limit exp(-mean), the uniform draw's rejection threshold, the
/// burst table) are computed once per stream, not once per value. A
/// randomized stream started at k = 0 draws and discards the trace's first
/// `phase` values to reach its first arrival, and reseeds when the rotation
/// wraps to the trace's first slice.
///
/// The envelope is not copied: it must outlive the stream. Throws
/// std::invalid_argument on the configs generate() rejects, on kTrace (a
/// replayed trace is already materialized), and on a non-positive period
/// for the spike and pulsing shapes.
class LoadStream {
 public:
  using State = Rng::State;

  /// An empty stream (size 0).
  LoadStream() = default;

  /// An empty stream that only carries `state`: a checkpointed cursor, kept
  /// without its config (or the envelope it must not outlive) until it is
  /// rebuilt with the resuming constructor.
  explicit LoadStream(const State& state) : rng_(state) {}

  /// The stream at arrival 0.
  LoadStream(Scenario s, const ScenarioConfig& cfg, int phase = 0, int join = 0,
             std::span<const double> envelope = {}) {
    start(s, cfg, phase, join, envelope);
  }

  /// The same stream at arrival `k` (0 <= k <= size(), else
  /// std::invalid_argument), resumed from the state() it had there (never
  /// all zero for a randomized shape, else std::invalid_argument).
  LoadStream(Scenario s, const ScenarioConfig& cfg, int phase, int join,
             std::span<const double> envelope, int k, const State& state);

  /// Rebinds this cursor to arrival 0 of the stream the constructor above
  /// builds, reusing the burst table's storage — and the table itself while
  /// low, high, decay and the tabled period are unchanged: a fleet device
  /// restarts the cursor it carries without a heap allocation or a
  /// std::pow.
  void start(Scenario s, const ScenarioConfig& cfg, int phase, int join,
             std::span<const double> envelope);

  /// Arrivals in the whole stream (cfg.slices).
  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] bool done() const { return k_ >= n_; }
  /// The generator words at the next arrival; all zero exactly for the
  /// deterministic shapes.
  [[nodiscard]] State state() const { return rng_.state(); }

  /// The next arrival, then advances. Precondition: !done().
  int next();

  /// Whether streams of shape `s` carry generator words (kRandom, kPoisson).
  [[nodiscard]] static bool randomized(Scenario s) {
    return s == Scenario::kRandom || s == Scenario::kPoisson;
  }

 private:
  /// Sets the shape constants and the position; draws nothing.
  void init(Scenario s, const ScenarioConfig& cfg, int phase, int join,
            std::span<const double> envelope, int k);
  [[nodiscard]] bool randomized() const { return randomized(scenario_); }
  /// One raw value of a randomized shape, drawn from rng_.
  int draw();

  Scenario scenario_ = Scenario::kLowConstant;
  int n_ = 0;
  int k_ = 0;
  int pos_ = 0;     ///< (phase + k) mod n: the trace index of arrival k
  int low_ = 0;
  int high_ = 0;
  /// The periodic shapes' repeat (spike period, two pulse widths, burst
  /// table size) and pos_ modulo it, stepped along with pos_ so no value
  /// costs a division.
  std::int64_t cycle_ = 1;
  std::int64_t cyc_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t bound_ = 1;      ///< kRandom: high - low + 1
  std::uint64_t threshold_ = 0;  ///< kRandom: Rng::rejection_threshold(bound_)
  double span_ = 0.0;            ///< kRamp: high - low
  double steps_ = 1.0;           ///< kRamp: slices - 1 (1 for one slice)
  double limit_ = 0.0;           ///< kPoisson: exp(-mean)
  std::vector<int> burst_;       ///< kBurstDecay: the load at each burst phase
  double burst_decay_ = 0.0;     ///< the decay burst_ was computed with
  Rng rng_{State{}};
  std::span<const double> env_;
  std::size_t env_at_ = 0;       ///< (join + k) mod env_.size()
};

/// Writes a load trace to `path` (one count per line, '#' comments allowed on
/// read). Throws std::runtime_error on I/O failure.
void save_trace(const std::string& path, const std::vector<int>& loads);

/// Reads a load trace written by save_trace (or by hand). Blank lines and
/// '#'-prefixed comment lines are skipped. Throws on I/O or parse failure.
[[nodiscard]] std::vector<int> load_trace(const std::string& path);

/// Renders a small ASCII sparkline of the load curve (for bench output).
[[nodiscard]] std::string sparkline(const std::vector<int>& loads, int high);

}  // namespace hhpim::workload
