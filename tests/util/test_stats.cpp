#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace u = drowsy::util;

TEST(OnlineStats, EmptyIsZero) {
  u::OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MeanAndVarianceMatchDirectComputation) {
  u::OnlineStats s;
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  u::Rng rng(3);
  u::OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 3.0);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  u::OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(SampleSet, QuantilesOnKnownData) {
  u::SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.99), 99.01, 1e-9);
}

TEST(SampleSet, EmptyQuantileIsZero) {
  u::SampleSet s;
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(SampleSet, AddAfterQuantileStillCorrect) {
  u::SampleSet s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
  s.add(5.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Histogram, BucketsAndClamping) {
  u::Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bucket 0
  h.add(3.0);    // bucket 1
  h.add(9.99);   // bucket 4
  h.add(-5.0);   // clamps to bucket 0
  h.add(100.0);  // clamps to bucket 4
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(4), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_low(1), 2.0);
}

TEST(Histogram, ToStringRendersOneLinePerBucket) {
  u::Histogram h(0.0, 4.0, 4);
  h.add(1.0);
  const std::string s = h.to_string();
  int lines = 0;
  for (char c : s) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);
}
