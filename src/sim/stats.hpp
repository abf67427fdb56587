// Lightweight statistics: counters, running scalar statistics and fixed-bin
// histograms. Used by module models to expose occupancy/latency metrics.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hhpim::sim {

/// Running mean / min / max / count over double samples (Welford variance).
class Summary {
 public:
  void add(double v);
  void merge(const Summary& other);
  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double m2_ = 0.0;   // Welford
  double mean_ = 0.0; // Welford
};

/// Histogram with uniform bins over [lo, hi); out-of-range samples land in
/// saturating underflow/overflow bins.
///
/// Histograms with identical shape (lo, hi, bin count) are mergeable —
/// merge() adds counts bin-wise, so a population split across shards (e.g.
/// the fleet simulator's per-shard aggregates) reduces to exactly the
/// histogram a single pass would have produced, in any merge order.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// A histogram of shape (lo, hi, bins.size()) holding the given counts;
  /// total() is their sum. Throws std::invalid_argument on a bad shape (as
  /// the constructor) or when the counts sum past 2^64 - 1.
  static Histogram from_counts(double lo, double hi, std::vector<std::uint64_t> bins,
                               std::uint64_t underflow, std::uint64_t overflow);

  void add(double v, std::uint64_t weight = 1);

  /// Adds `other`'s counts bin-wise (including under/overflow). Throws
  /// std::invalid_argument unless both histograms have the same lo, hi and
  /// bin count. O(bins); associative and commutative.
  void merge(const Histogram& other);

  void reset();

  /// Same lo, hi and bin count: what merge() requires.
  [[nodiscard]] bool same_shape(const Histogram& other) const;

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bins() const { return bins_; }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  /// Value below which `q` (0..1) of the mass lies, linear within a bin.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::string render(std::size_t width = 40) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

}  // namespace hhpim::sim
