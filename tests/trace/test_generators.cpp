#include "trace/generators.hpp"

#include <gtest/gtest.h>

#include "util/sim_time.hpp"

namespace t = drowsy::trace;
namespace u = drowsy::util;

namespace {
t::GenOptions one_year() {
  t::GenOptions o;
  o.years = 1;
  return o;
}
}  // namespace

TEST(Generators, DailyBackupActiveOnlyAtBackupHour) {
  const auto trace = t::daily_backup(one_year(), /*hour=*/2, /*duration=*/1);
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(u::kHoursPerYear));
  for (std::size_t h = 0; h < trace.size(); ++h) {
    const int hour_of_day = static_cast<int>(h % 24);
    if (hour_of_day == 2) {
      EXPECT_GT(trace.hours()[h], 0.0) << "hour " << h;
    } else {
      EXPECT_EQ(trace.hours()[h], 0.0) << "hour " << h;
    }
  }
  EXPECT_EQ(trace.classify(), t::VmClass::Llmi);
}

TEST(Generators, ComicStripsSilentInJulyAndAugust) {
  const auto trace = t::comic_strips(one_year());
  for (std::size_t h = 0; h < trace.size(); ++h) {
    const auto c = u::calendar_of(static_cast<u::SimTime>(h) * u::kMsPerHour);
    if (c.month == 6 || c.month == 7) {
      EXPECT_EQ(trace.hours()[h], 0.0) << "active during holidays at hour " << h;
    }
  }
}

TEST(Generators, ComicStripsOnlyOnPublicationMornings) {
  const auto trace = t::comic_strips(one_year());
  bool any_active = false;
  for (std::size_t h = 0; h < trace.size(); ++h) {
    if (trace.hours()[h] == 0.0) continue;
    any_active = true;
    const auto c = u::calendar_of(static_cast<u::SimTime>(h) * u::kMsPerHour);
    EXPECT_TRUE(c.day_of_week == 0 || c.day_of_week == 2 || c.day_of_week == 4)
        << "active on weekday " << c.day_of_week;
    EXPECT_GE(c.hour, 6);
    EXPECT_LE(c.hour, 11);
  }
  EXPECT_TRUE(any_active);
}

TEST(Generators, LlmuNeverIdle) {
  const auto trace = t::llmu_constant(one_year());
  for (double v : trace.hours()) EXPECT_GT(v, 0.0);
  EXPECT_EQ(trace.classify(), t::VmClass::Llmu);
}

TEST(Generators, NutanixLikeIsLlmiWithFig1Amplitudes) {
  for (std::size_t variant = 0; variant < 5; ++variant) {
    const auto trace = t::nutanix_like(variant, one_year());
    EXPECT_EQ(trace.classify(), t::VmClass::Llmi) << "variant " << variant;
    double peak = 0.0;
    for (double v : trace.hours()) peak = std::max(peak, v);
    // Fig. 1 peaks are in the 5–25 % band.
    EXPECT_GT(peak, 0.04) << "variant " << variant;
    EXPECT_LT(peak, 0.30) << "variant " << variant;
  }
}

TEST(Generators, NutanixVariantsDiffer) {
  const auto a = t::nutanix_like(0, one_year());
  const auto b = t::nutanix_like(1, one_year());
  EXPECT_NE(a.hours(), b.hours());
}

TEST(Generators, DiplomaResultsSpikesOnJulyTwentieth) {
  const auto trace = t::diploma_results(one_year());
  // Day-of-year 200 = July 20 (non-leap); hours 14 and 15 spike.
  const std::size_t base = 200u * 24u;
  EXPECT_GT(trace.hours()[base + 14], 0.5);
  EXPECT_GT(trace.hours()[base + 15], 0.5);
  // A random winter day is silent.
  EXPECT_EQ(trace.hours()[40 * 24 + 14], 0.0);
  EXPECT_EQ(trace.classify(), t::VmClass::Llmi);
}

TEST(Generators, OfficeHoursWeekdaysOnly) {
  const auto trace = t::office_hours(one_year());
  for (std::size_t h = 0; h < trace.size(); ++h) {
    const auto c = u::calendar_of(static_cast<u::SimTime>(h) * u::kMsPerHour);
    const bool should_be_active = c.day_of_week < 5 && c.hour >= 9 && c.hour < 17;
    if (should_be_active) {
      EXPECT_GT(trace.hours()[h], 0.0) << "hour " << h;
    } else {
      EXPECT_EQ(trace.hours()[h], 0.0) << "hour " << h;
    }
  }
}

TEST(Generators, EndOfMonthActiveOnlyAtMonthEnd) {
  const auto trace = t::end_of_month(one_year(), /*days_active=*/2);
  for (std::size_t h = 0; h < trace.size(); ++h) {
    if (trace.hours()[h] == 0.0) continue;
    const auto c = u::calendar_of(static_cast<u::SimTime>(h) * u::kMsPerHour);
    EXPECT_GE(c.day_of_month, u::days_in_month(c.month) - 2)
        << "active mid-month at hour " << h;
  }
}

TEST(Generators, GoogleLikeLlmuStaysBusy) {
  const auto trace = t::google_like_llmu(one_year());
  EXPECT_EQ(trace.classify(), t::VmClass::Llmu);
  EXPECT_GT(trace.mean_activity(), 0.3);
  EXPECT_LT(trace.idle_fraction(), 0.01);
}

TEST(Generators, RandomLlmiDeterministicPerSeed) {
  const auto a = t::random_llmi(42, 1);
  const auto b = t::random_llmi(42, 1);
  const auto c = t::random_llmi(43, 1);
  EXPECT_EQ(a.hours(), b.hours());
  EXPECT_NE(a.hours(), c.hours());
  EXPECT_EQ(a.classify(), t::VmClass::Llmi);
}

TEST(Generators, AllLevelsWithinUnitInterval) {
  for (const auto& trace :
       {t::daily_backup(one_year()), t::comic_strips(one_year()),
        t::llmu_constant(one_year()), t::nutanix_like(2, one_year()),
        t::diploma_results(one_year()), t::google_like_llmu(one_year())}) {
    for (double v : trace.hours()) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(Generators, ThreeYearTracesForFig4) {
  t::GenOptions o;
  o.years = 3;
  EXPECT_EQ(t::daily_backup(o).size(), static_cast<std::size_t>(3 * u::kHoursPerYear));
  EXPECT_EQ(t::comic_strips(o).size(), static_cast<std::size_t>(3 * u::kHoursPerYear));
}
