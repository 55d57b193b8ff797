#include "util/sim_time.hpp"

#include <gtest/gtest.h>

#include <array>

namespace u = drowsy::util;

TEST(SimTime, EpochIsMondayJanuaryFirstMidnight) {
  const u::CalendarTime c = u::calendar_of(0);
  EXPECT_EQ(c.year, 0);
  EXPECT_EQ(c.month, 0);
  EXPECT_EQ(c.day_of_month, 0);
  EXPECT_EQ(c.day_of_week, 0);  // Monday
  EXPECT_EQ(c.day_of_year, 0);
  EXPECT_EQ(c.hour, 0);
  EXPECT_EQ(c.hour_of_year, 0);
}

TEST(SimTime, HourAdvancesWithinDay) {
  const u::CalendarTime c = u::calendar_of(u::hours(13.0));
  EXPECT_EQ(c.hour, 13);
  EXPECT_EQ(c.day_of_year, 0);
}

TEST(SimTime, DayOfWeekWraps) {
  EXPECT_EQ(u::calendar_of(u::days(6)).day_of_week, 6);   // Sunday
  EXPECT_EQ(u::calendar_of(u::days(7)).day_of_week, 0);   // Monday again
  EXPECT_EQ(u::calendar_of(u::days(8)).day_of_week, 1);   // Tuesday
}

TEST(SimTime, MonthBoundaries) {
  // Day 30 (0-based) is January 31st; day 31 is February 1st.
  EXPECT_EQ(u::calendar_of(u::days(30)).month, 0);
  EXPECT_EQ(u::calendar_of(u::days(30)).day_of_month, 30);
  EXPECT_EQ(u::calendar_of(u::days(31)).month, 1);
  EXPECT_EQ(u::calendar_of(u::days(31)).day_of_month, 0);
}

TEST(SimTime, MonthLengthsSumTo365) {
  int total = 0;
  for (int m = 0; m < u::kMonthsPerYear; ++m) total += u::days_in_month(m);
  EXPECT_EQ(total, 365);
}

TEST(SimTime, JulyTwentieth) {
  // Jan 31 + Feb 28 + Mar 31 + Apr 30 + May 31 + Jun 30 = 181 days; July
  // 20th is day 181 + 19 = 200 (0-based).
  const u::CalendarTime c = u::calendar_of(u::days(200) + u::hours(14.0));
  EXPECT_EQ(c.month, 6);
  EXPECT_EQ(c.day_of_month, 19);
  EXPECT_EQ(c.hour, 14);
}

TEST(SimTime, YearRollsOver) {
  const u::CalendarTime end = u::calendar_of(u::kMsPerYear - 1);
  EXPECT_EQ(end.year, 0);
  EXPECT_EQ(end.day_of_year, 364);
  const u::CalendarTime next = u::calendar_of(u::kMsPerYear);
  EXPECT_EQ(next.year, 1);
  EXPECT_EQ(next.day_of_year, 0);
  // 365 % 7 == 1: the weekday shifts by one across a year boundary.
  EXPECT_EQ(next.day_of_week, 1);
}

TEST(SimTime, TimeOfInvertsCalendarOf) {
  for (int year : {0, 1, 2}) {
    for (int doy : {0, 1, 31, 59, 180, 200, 364}) {
      for (int hour : {0, 2, 14, 23}) {
        const u::SimTime t = u::time_of(year, doy, hour);
        const u::CalendarTime c = u::calendar_of(t);
        EXPECT_EQ(c.year, year);
        EXPECT_EQ(c.day_of_year, doy);
        EXPECT_EQ(c.hour, hour);
      }
    }
  }
}

TEST(SimTime, HourIndexAndFloor) {
  const u::SimTime t = u::hours(5.0) + 1234;
  EXPECT_EQ(u::hour_index(t), 5);
  EXPECT_EQ(u::floor_hour(t), u::hours(5.0));
  EXPECT_EQ(u::next_hour(t), u::hours(6.0));
  EXPECT_EQ(u::next_hour(u::hours(5.0)), u::hours(6.0));
}

TEST(SimTime, HourOfYearConsistent) {
  // Exhaustive over one year: hour_of_year must equal its definition and
  // stay within bounds.
  for (int doy = 0; doy < u::kDaysPerYear; doy += 13) {
    for (int h = 0; h < u::kHoursPerDay; ++h) {
      const u::CalendarTime c = u::calendar_of(u::time_of(0, doy, h));
      EXPECT_EQ(c.hour_of_year, doy * 24 + h);
      EXPECT_LT(c.hour_of_year, u::kHoursPerYear);
    }
  }
}

TEST(SimTime, FormatDuration) {
  EXPECT_EQ(u::format_duration(u::seconds(5.5)), "5.5s");
  EXPECT_EQ(u::format_duration(u::minutes(2) + u::seconds(3)), "2m 3.0s");
  EXPECT_EQ(u::format_duration(u::hours(3.0) + u::minutes(4)), "3h 4m");
  EXPECT_EQ(u::format_duration(u::days(2) + u::hours(3.0)), "2d 3h 0m");
  EXPECT_EQ(u::format_duration(u::kNever), "never");
}

TEST(SimTime, CalendarToString) {
  const u::CalendarTime c = u::calendar_of(u::days(200) + u::hours(14.0));
  EXPECT_EQ(c.to_string(), "Y0 Jul 20 14:00 (Fri)");  // day 200 % 7 == 4
}

TEST(SimTime, AdvanceHourMatchesCalendarOfOverThreeYears) {
  // Every hour of three years, so every day, week, month and year
  // boundary in them, plus the first hour of the fourth year.
  const auto fields = [](const u::CalendarTime& c) {
    return std::array<int, 7>{c.year, c.month, c.day_of_month, c.day_of_week,
                              c.day_of_year, c.hour, c.hour_of_year};
  };
  u::CalendarTime c = u::calendar_of(0);
  for (std::int64_t h = 1; h <= 3 * u::kHoursPerYear; ++h) {
    u::advance_hour(c);
    ASSERT_EQ(fields(c), fields(u::calendar_of(h * u::kMsPerHour))) << "hour " << h;
  }
  EXPECT_EQ(c.year, 3);
}

class CalendarSweep : public ::testing::TestWithParam<int> {};

TEST_P(CalendarSweep, FieldsStayInBounds) {
  const int day = GetParam();
  for (int h = 0; h < 24; h += 5) {
    const u::CalendarTime c = u::calendar_of(u::days(day) + u::hours(double(h)));
    EXPECT_GE(c.month, 0);
    EXPECT_LT(c.month, 12);
    EXPECT_GE(c.day_of_month, 0);
    EXPECT_LT(c.day_of_month, u::days_in_month(c.month));
    EXPECT_GE(c.day_of_week, 0);
    EXPECT_LT(c.day_of_week, 7);
    EXPECT_EQ(c.day_of_year, day % 365);
  }
}

INSTANTIATE_TEST_SUITE_P(DaysAcrossThreeYears, CalendarSweep,
                         ::testing::Values(0, 1, 27, 28, 58, 59, 90, 180, 200, 250, 300,
                                           364, 365, 400, 729, 730, 1000, 1094));
