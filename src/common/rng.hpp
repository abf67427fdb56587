// Deterministic random number generation for workload synthesis.
//
// xoshiro256** seeded through SplitMix64: fast, high quality, and — unlike
// std::mt19937 + std::uniform_* — bit-identical across standard libraries,
// which keeps the benchmark workloads reproducible everywhere.
#pragma once

#include <array>
#include <cstdint>

namespace hhpim {

/// SplitMix64; used to expand a single seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna, public domain reference algorithm).
class Rng {
 public:
  /// The generator's whole state: four xoshiro words.
  using State = std::array<std::uint64_t, 4>;

  explicit constexpr Rng(std::uint64_t seed) {
    SplitMix64 sm{seed};
    for (auto& s : s_) s = sm.next();
  }

  /// Resumes the stream at a point captured with state().
  explicit constexpr Rng(const State& state) : s_(state) {}

  [[nodiscard]] constexpr State state() const { return s_; }

  constexpr std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). Uses rejection sampling (no modulo bias).
  constexpr std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    return next_below(bound, rejection_threshold(bound));
  }

  /// next_below(bound) with its rejection threshold precomputed by a caller
  /// drawing many values below one bound (> 0). Same draws, same values.
  constexpr std::uint64_t next_below(std::uint64_t bound, std::uint64_t threshold) {
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// The draws below `threshold` that next_below(bound) rejects: 2^64 mod
  /// bound, so the accepted range is a whole number of `bound` periods.
  static constexpr std::uint64_t rejection_threshold(std::uint64_t bound) {
    return (0 - bound) % bound;
  }

  /// Uniform integer in the closed interval [lo, hi].
  constexpr std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  constexpr bool next_bool(double p) { return next_double() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  State s_{};
};

}  // namespace hhpim
