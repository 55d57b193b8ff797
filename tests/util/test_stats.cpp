#include "util/stats.hpp"

#include <gtest/gtest.h>

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
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
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
  s.add(0.0);  // lands below every sorted sample
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.0);
}
