#include "trace/trace.hpp"

#include <gtest/gtest.h>

namespace t = drowsy::trace;

TEST(ActivityTrace, BasicAccessors) {
  t::ActivityTrace trace({0.0, 0.5, 1.0}, "demo");
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.name(), "demo");
  EXPECT_DOUBLE_EQ(trace.at_hour(1), 0.5);
}

TEST(ActivityTrace, PeriodicExtensionWrapsAround) {
  t::ActivityTrace trace({0.1, 0.2, 0.3});
  EXPECT_DOUBLE_EQ(trace.at_hour(3), 0.1);
  EXPECT_DOUBLE_EQ(trace.at_hour(4), 0.2);
  EXPECT_DOUBLE_EQ(trace.at_hour(300), trace.at_hour(0));
}

TEST(ActivityTrace, IdleFraction) {
  t::ActivityTrace trace({0.0, 0.0, 0.5, 0.0});
  EXPECT_DOUBLE_EQ(trace.idle_fraction(), 0.75);
  EXPECT_DOUBLE_EQ(trace.mean_activity(), 0.125);
}

TEST(ActivityTrace, IdleFractionCountsHoursBelowTheNoiseFloor) {
  t::ActivityTrace trace({0.004, 0.005, 0.1});
  EXPECT_DOUBLE_EQ(trace.idle_fraction(), 1.0 / 3.0);
}

TEST(ActivityTrace, ClassifyShortLived) {
  // A two-day trace is short-lived no matter the load.
  std::vector<double> hours(48, 1.0);
  t::ActivityTrace trace(std::move(hours));
  EXPECT_EQ(trace.classify(), t::VmClass::Slmu);
}

TEST(ActivityTrace, ClassifyLlmu) {
  std::vector<double> hours(24 * 30, 0.8);
  t::ActivityTrace trace(std::move(hours));
  EXPECT_EQ(trace.classify(), t::VmClass::Llmu);
}

TEST(ActivityTrace, ClassifyLlmi) {
  // Mostly idle: one active hour per day.
  std::vector<double> hours(24 * 30, 0.0);
  for (std::size_t i = 2; i < hours.size(); i += 24) hours[i] = 0.5;
  t::ActivityTrace trace(std::move(hours));
  EXPECT_EQ(trace.classify(), t::VmClass::Llmi);
}

TEST(ActivityTrace, ReadsTileTheConstructedHours) {
  const t::ActivityTrace week({0.5, 0.0});
  EXPECT_EQ(week.size(), 2u);
  EXPECT_DOUBLE_EQ(week.at_hour(98), 0.5);
  EXPECT_DOUBLE_EQ(week.at_hour(99), 0.0);
}

TEST(VmClass, Names) {
  EXPECT_STREQ(t::to_string(t::VmClass::Slmu), "SLMU");
  EXPECT_STREQ(t::to_string(t::VmClass::Llmu), "LLMU");
  EXPECT_STREQ(t::to_string(t::VmClass::Llmi), "LLMI");
}
