#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace hhpim::sim {

void Summary::add(double v) {
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  const double delta = v - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (v - mean_);
}

void Summary::merge(const Summary& o) {
  if (o.count_ == 0) return;
  if (count_ == 0) {
    *this = o;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(o.count_);
  const double delta = o.mean_ - mean_;
  const double n = n1 + n2;
  m2_ += o.m2_ + delta * delta * n1 * n2 / n;
  mean_ = (n1 * mean_ + n2 * o.mean_) / n;
  count_ += o.count_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

void Summary::reset() { *this = Summary{}; }

double Summary::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

Histogram Histogram::from_counts(double lo, double hi, std::vector<std::uint64_t> bins,
                                 std::uint64_t underflow, std::uint64_t overflow) {
  Histogram h{lo, hi, bins.size()};
  std::uint64_t total = 0;
  const auto count = [&total](std::uint64_t c) {
    if (c > std::numeric_limits<std::uint64_t>::max() - total) {
      throw std::invalid_argument("Histogram: counts sum past 2^64 - 1");
    }
    total += c;
  };
  count(underflow);
  count(overflow);
  for (const std::uint64_t b : bins) count(b);
  h.bins_ = std::move(bins);
  h.underflow_ = underflow;
  h.overflow_ = overflow;
  h.total_ = total;
  return h;
}

void Histogram::add(double v, std::uint64_t weight) {
  total_ += weight;
  if (v < lo_) {
    underflow_ += weight;
    return;
  }
  if (v >= hi_) {
    overflow_ += weight;
    return;
  }
  const auto idx = static_cast<std::size_t>((v - lo_) / (hi_ - lo_) *
                                            static_cast<double>(bins_.size()));
  bins_[std::min(idx, bins_.size() - 1)] += weight;
}

bool Histogram::same_shape(const Histogram& o) const {
  return lo_ == o.lo_ && hi_ == o.hi_ && bins_.size() == o.bins_.size();
}

void Histogram::merge(const Histogram& o) {
  if (!same_shape(o)) {
    throw std::invalid_argument("Histogram::merge: shape mismatch");
  }
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += o.bins_[i];
  underflow_ += o.underflow_;
  overflow_ += o.overflow_;
  total_ += o.total_;
}

void Histogram::reset() {
  std::fill(bins_.begin(), bins_.end(), 0);
  underflow_ = overflow_ = total_ = 0;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(bins_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (cum >= target) return lo_;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double next = cum + static_cast<double>(bins_[i]);
    if (next >= target && bins_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(bins_[i]);
      return bin_lo(i) + frac * (bin_hi(i) - bin_lo(i));
    }
    cum = next;
  }
  return hi_;
}

std::string Histogram::render(std::size_t width) const {
  std::ostringstream out;
  const std::uint64_t peak = *std::max_element(bins_.begin(), bins_.end());
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const auto bar = peak == 0 ? 0
                               : static_cast<std::size_t>(
                                     static_cast<double>(bins_[i]) /
                                     static_cast<double>(peak) *
                                     static_cast<double>(width));
    out << "[" << bin_lo(i) << ", " << bin_hi(i) << ") "
        << std::string(bar, '#') << " " << bins_[i] << "\n";
  }
  return out.str();
}

}  // namespace hhpim::sim
