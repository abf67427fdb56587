#include "workload/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/strings.hpp"

namespace hhpim::workload {

const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::kLowConstant: return "low-constant";
    case Scenario::kHighConstant: return "high-constant";
    case Scenario::kPeriodicSpike: return "periodic-spike";
    case Scenario::kPeriodicSpikeFrequent: return "periodic-spike-frequent";
    case Scenario::kPulsing: return "high-low-pulsing";
    case Scenario::kRandom: return "random";
    case Scenario::kRamp: return "ramp";
    case Scenario::kBurstDecay: return "burst-decay";
    case Scenario::kPoisson: return "poisson";
    case Scenario::kTrace: return "trace-replay";
  }
  return "?";
}

const char* case_name(Scenario s) {
  switch (s) {
    case Scenario::kLowConstant: return "Case 1";
    case Scenario::kHighConstant: return "Case 2";
    case Scenario::kPeriodicSpike: return "Case 3";
    case Scenario::kPeriodicSpikeFrequent: return "Case 4";
    case Scenario::kPulsing: return "Case 5";
    case Scenario::kRandom: return "Case 6";
    default: return to_string(s);
  }
}

std::optional<Scenario> from_string(std::string_view name) {
  for (const Scenario s : all_scenarios()) {
    if (name == to_string(s)) return s;
  }
  for (const Scenario s : extended_scenarios()) {
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

std::array<Scenario, 6> all_scenarios() {
  return {Scenario::kLowConstant,       Scenario::kHighConstant,
          Scenario::kPeriodicSpike,     Scenario::kPeriodicSpikeFrequent,
          Scenario::kPulsing,           Scenario::kRandom};
}

std::array<Scenario, 4> extended_scenarios() {
  return {Scenario::kRamp, Scenario::kBurstDecay, Scenario::kPoisson,
          Scenario::kTrace};
}

namespace {

/// Knuth's product-of-uniforms Poisson method; exact for the small means
/// used here (< ~30) and bit-stable given the Rng stream. `limit` is
/// exp(-mean).
int poisson_draw(Rng& rng, double limit) {
  double p = 1.0;
  int k = 0;
  do {
    ++k;
    p *= rng.next_double();
  } while (p > limit);
  return k - 1;
}

}  // namespace

std::vector<int> generate(Scenario s, const ScenarioConfig& cfg) {
  if (s == Scenario::kTrace) {
    // Replay: the trace defines both the counts and the run length.
    std::vector<int> loads = cfg.trace_path.empty() ? cfg.trace : load_trace(cfg.trace_path);
    if (loads.empty()) {
      throw std::invalid_argument("ScenarioConfig: kTrace needs trace_path or a non-empty trace");
    }
    for (const int l : loads) {
      if (l < 0) throw std::invalid_argument("trace replay: negative load");
    }
    return loads;
  }
  LoadStream stream{s, cfg};
  std::vector<int> loads(static_cast<std::size_t>(stream.size()));
  for (int& l : loads) l = stream.next();
  return loads;
}

void LoadStream::start(Scenario s, const ScenarioConfig& cfg, int phase, int join,
                       std::span<const double> envelope) {
  init(s, cfg, phase, join, envelope, 0);
  if (!randomized()) return;
  // Reach the first arrival's trace index; the values drawn on the way come
  // again after the wrap, where next() reseeds.
  rng_ = Rng{seed_};
  for (int i = 0; i < pos_; ++i) (void)draw();
}

LoadStream::LoadStream(Scenario s, const ScenarioConfig& cfg, int phase, int join,
                       std::span<const double> envelope, int k, const State& state) {
  init(s, cfg, phase, join, envelope, k);
  if (!randomized()) return;
  // All-zero words are no xoshiro state: the generator would yield zeros
  // forever, and a uniform draw would reject them forever.
  if (state == State{}) {
    throw std::invalid_argument("LoadStream: a randomized stream resumes from non-zero words");
  }
  rng_ = Rng{state};
}

void LoadStream::init(Scenario s, const ScenarioConfig& cfg, int phase, int join,
                      std::span<const double> envelope, int k) {
  if (s == Scenario::kTrace) {
    throw std::invalid_argument("LoadStream: kTrace is replayed, not streamed");
  }
  if (cfg.slices <= 0 || cfg.low < 0 || cfg.high < cfg.low) {
    throw std::invalid_argument("ScenarioConfig: need slices > 0 and 0 <= low <= high");
  }
  if (k < 0 || k > cfg.slices) {
    throw std::invalid_argument("LoadStream: position outside [0, slices]");
  }
  // Every field back to its default (a deterministic shape's words are all
  // zero), keeping the burst table and its decay. A table holds the loads of
  // the low and high of the streams since it was computed, so a change of
  // either empties it.
  std::vector<int> table = std::move(burst_);
  const double tabled_decay = burst_decay_;
  if (cfg.low != low_ || cfg.high != high_) table.clear();
  *this = LoadStream{};
  burst_ = std::move(table);
  burst_decay_ = tabled_decay;
  scenario_ = s;
  n_ = cfg.slices;
  k_ = k;
  pos_ = static_cast<int>((static_cast<std::uint64_t>(phase) % static_cast<std::uint64_t>(n_) +
                           static_cast<std::uint64_t>(k)) %
                          static_cast<std::uint64_t>(n_));
  low_ = cfg.low;
  high_ = cfg.high;
  seed_ = cfg.seed;
  env_ = envelope;
  if (!env_.empty()) {
    env_at_ = (static_cast<std::size_t>(join < 0 ? 0 : join) + static_cast<std::size_t>(k)) %
              env_.size();
  }
  switch (s) {
    case Scenario::kPeriodicSpike:
    case Scenario::kPeriodicSpikeFrequent:
      cycle_ = s == Scenario::kPeriodicSpike ? cfg.spike_period : cfg.spike_period_frequent;
      if (cycle_ <= 0) throw std::invalid_argument("ScenarioConfig: spike periods must be > 0");
      break;
    case Scenario::kPulsing:
      // High while (i / width) is even: while i mod 2 * width < width.
      if (cfg.pulse_width <= 0) {
        throw std::invalid_argument("ScenarioConfig: pulse_width must be > 0");
      }
      cycle_ = 2 * static_cast<std::int64_t>(cfg.pulse_width);
      break;
    case Scenario::kRandom:
      bound_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(high_) - low_ + 1);
      threshold_ = Rng::rejection_threshold(bound_);
      break;
    case Scenario::kRamp:
      // Monotone non-decreasing climb from low to high across the run.
      span_ = static_cast<double>(high_ - low_);
      steps_ = n_ > 1 ? static_cast<double>(n_ - 1) : 1.0;
      break;
    case Scenario::kBurstDecay: {
      if (cfg.burst_period <= 0 || !(cfg.burst_decay > 0.0 && cfg.burst_decay <= 1.0)) {
        throw std::invalid_argument(
            "ScenarioConfig: kBurstDecay needs burst_period > 0 and burst_decay in (0, 1]");
      }
      // Trace index i decays for i % burst_period slices; only the phases a
      // trace of n slices reaches are tabled. A kept table of the same size
      // and decay holds the same bits.
      const auto size = static_cast<std::size_t>(std::min(cfg.burst_period, n_));
      if (burst_.size() != size || burst_decay_ != cfg.burst_decay) {
        const double span = static_cast<double>(high_ - low_);
        burst_.resize(size);
        for (std::size_t ph = 0; ph < size; ++ph) {
          const double amplitude = span * std::pow(cfg.burst_decay, static_cast<double>(ph));
          burst_[ph] = low_ + static_cast<int>(std::llround(amplitude));
        }
        burst_decay_ = cfg.burst_decay;
      }
      cycle_ = static_cast<std::int64_t>(burst_.size());
      break;
    }
    case Scenario::kPoisson:
      // Upper bound keeps exp(-mean) well away from underflow, where Knuth's
      // method degenerates; per-slice inference counts are far below this.
      if (!(cfg.poisson_mean > 0.0 && cfg.poisson_mean <= 500.0)) {
        throw std::invalid_argument(
            "ScenarioConfig: kPoisson needs poisson_mean in (0, 500]");
      }
      limit_ = std::exp(-cfg.poisson_mean);
      break;
    case Scenario::kLowConstant:
    case Scenario::kHighConstant:
    case Scenario::kTrace:
      break;
  }
  cyc_ = pos_ % cycle_;
}

inline int LoadStream::draw() {
  if (scenario_ == Scenario::kRandom) {
    return low_ + static_cast<int>(rng_.next_below(bound_, threshold_));
  }
  Rng local = rng_;  // the draw loop keeps the words in registers
  const int k = poisson_draw(local, limit_);
  rng_ = local;
  return std::min(high_, k);
}

int LoadStream::next() {
  int load = low_;
  switch (scenario_) {
    case Scenario::kLowConstant: break;
    case Scenario::kHighConstant: load = high_; break;
    case Scenario::kPeriodicSpike:
    case Scenario::kPeriodicSpikeFrequent: load = cyc_ == 0 ? high_ : low_; break;
    case Scenario::kPulsing: load = 2 * cyc_ < cycle_ ? high_ : low_; break;
    case Scenario::kRandom:
    case Scenario::kPoisson:
      // Trace index 0 is the generator's first draw: reseed there.
      if (pos_ == 0) rng_ = Rng{seed_};
      load = draw();
      break;
    case Scenario::kRamp:
      load = low_ + static_cast<int>(std::llround(span_ * static_cast<double>(pos_) / steps_));
      break;
    case Scenario::kBurstDecay: load = burst_[static_cast<std::size_t>(cyc_)]; break;
    case Scenario::kTrace: break;
  }
  if (++pos_ == n_) {
    pos_ = 0;
    cyc_ = 0;
  } else if (++cyc_ == cycle_) {
    cyc_ = 0;
  }
  ++k_;
  if (!env_.empty()) {
    load = static_cast<int>(static_cast<double>(load) * env_[env_at_] + 0.5);
    if (++env_at_ == env_.size()) env_at_ = 0;
  }
  return load;
}

void save_trace(const std::string& path, const std::vector<int>& loads) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_trace: cannot open " + path);
  out << "# hhpim load trace: one inference count per slice\n";
  for (const int l : loads) out << l << "\n";
  if (!out) throw std::runtime_error("save_trace: write failed for " + path);
}

std::vector<int> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_trace: cannot open " + path);
  std::vector<int> loads;
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::size_t used = 0;
    int v = 0;
    try {
      v = std::stoi(t, &used);
    } catch (const std::exception&) {
      throw std::runtime_error("load_trace: bad line '" + t + "' in " + path);
    }
    if (used != t.size() || v < 0) {
      throw std::runtime_error("load_trace: bad line '" + t + "' in " + path);
    }
    loads.push_back(v);
  }
  return loads;
}

std::string sparkline(const std::vector<int>& loads, int high) {
  static const char* kLevels[] = {"_", ".", ":", "-", "=", "+", "*", "#"};
  std::string out;
  for (const int l : loads) {
    const int idx = high == 0 ? 0 : (l * 7) / high;
    out += kLevels[idx < 0 ? 0 : (idx > 7 ? 7 : idx)];
  }
  return out;
}

}  // namespace hhpim::workload
