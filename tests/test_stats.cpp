#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

namespace hhpim::sim {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);  // sample variance
}

TEST(Summary, EmptyIsZero) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeEqualsCombinedStream) {
  Summary a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double v = i * 0.37;
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a;
  a.add(5.0);
  Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Histogram, BinsAndRanges) {
  Histogram h{0.0, 10.0, 10};
  h.add(0.5);
  h.add(9.99);
  h.add(-1.0);
  h.add(10.0);  // hi is exclusive
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bins()[0], 1u);
  EXPECT_EQ(h.bins()[9], 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, WeightedAdd) {
  Histogram h{0.0, 1.0, 2};
  h.add(0.25, 10);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.bins()[0], 10u);
}

TEST(Histogram, QuantileLinearInterpolation) {
  Histogram h{0.0, 100.0, 100};
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, FromCountsRestoresWhatAddsBuilt) {
  Histogram h{0.0, 4.0, 4};
  for (const double v : {-1.0, 0.5, 1.5, 1.7, 3.9, 4.0, 9.0}) h.add(v);
  const Histogram back =
      Histogram::from_counts(h.lo(), h.hi(), h.bins(), h.underflow(), h.overflow());
  EXPECT_TRUE(back.same_shape(h));
  EXPECT_EQ(back.bins(), h.bins());
  EXPECT_EQ(back.underflow(), 1u);
  EXPECT_EQ(back.overflow(), 2u);
  EXPECT_EQ(back.total(), h.total());
  EXPECT_EQ(back.quantile(0.5), h.quantile(0.5));

  EXPECT_FALSE(Histogram(0.0, 4.0, 5).same_shape(h));
  EXPECT_FALSE(Histogram(0.0, 5.0, 4).same_shape(h));
  EXPECT_THROW((void)Histogram::from_counts(0.0, 1.0, {}, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)Histogram::from_counts(1.0, 1.0, {1}, 0, 0), std::invalid_argument);
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)Histogram::from_counts(0.0, 1.0, {max, 0}, 0, 1),
               std::invalid_argument);
  EXPECT_EQ(Histogram::from_counts(0.0, 1.0, {max, 0}, 0, 0).total(), max);
}

TEST(Histogram, RenderProducesOneLinePerBin) {
  Histogram h{0.0, 2.0, 2};
  h.add(0.5);
  const std::string s = h.render();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
}

}  // namespace
}  // namespace hhpim::sim
