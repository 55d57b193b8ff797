#include "util/sim_time.hpp"

#include <array>
#include <cassert>
#include <cstdio>

namespace drowsy::util {

namespace {
constexpr std::array<int, kMonthsPerYear> kMonthDays = {31, 28, 31, 30, 31, 30,
                                                        31, 31, 30, 31, 30, 31};
constexpr std::array<const char*, kMonthsPerYear> kMonthNames = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
constexpr std::array<const char*, kDaysPerWeek> kDayNames = {"Mon", "Tue", "Wed", "Thu",
                                                             "Fri", "Sat", "Sun"};
}  // namespace

int days_in_month(int month) {
  assert(month >= 0 && month < kMonthsPerYear);
  return kMonthDays[static_cast<std::size_t>(month)];
}

CalendarTime calendar_of(SimTime t) {
  assert(t >= 0);
  CalendarTime c;
  const std::int64_t total_hours = t / kMsPerHour;
  const std::int64_t total_days = total_hours / kHoursPerDay;
  c.hour = static_cast<int>(total_hours % kHoursPerDay);
  c.year = static_cast<int>(total_days / kDaysPerYear);
  c.day_of_year = static_cast<int>(total_days % kDaysPerYear);
  c.day_of_week = static_cast<int>(total_days % kDaysPerWeek);
  c.hour_of_year = c.day_of_year * kHoursPerDay + c.hour;

  int remaining = c.day_of_year;
  int month = 0;
  while (remaining >= kMonthDays[static_cast<std::size_t>(month)]) {
    remaining -= kMonthDays[static_cast<std::size_t>(month)];
    ++month;
  }
  c.month = month;
  c.day_of_month = remaining;
  return c;
}

void advance_hour(CalendarTime& c) {
  ++c.hour_of_year;
  if (++c.hour < kHoursPerDay) return;
  c.hour = 0;
  if (++c.day_of_week == kDaysPerWeek) c.day_of_week = 0;
  if (++c.day_of_year == kDaysPerYear) {
    ++c.year;
    c.day_of_year = c.hour_of_year = c.month = c.day_of_month = 0;
  } else if (++c.day_of_month == kMonthDays[static_cast<std::size_t>(c.month)]) {
    c.day_of_month = 0;
    ++c.month;
  }
}

SimTime time_of(int year, int day_of_year, int hour) {
  assert(year >= 0 && day_of_year >= 0 && day_of_year < kDaysPerYear);
  assert(hour >= 0 && hour < kHoursPerDay);
  return static_cast<SimTime>(year) * kMsPerYear +
         static_cast<SimTime>(day_of_year) * kMsPerDay +
         static_cast<SimTime>(hour) * kMsPerHour;
}

std::string CalendarTime::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "Y%d %s %d %02d:00 (%s)", year,
                kMonthNames[static_cast<std::size_t>(month)], day_of_month + 1, hour,
                kDayNames[static_cast<std::size_t>(day_of_week)]);
  return buf;
}

std::string format_duration(SimTime ms) {
  if (ms == kNever) return "never";
  const bool neg = ms < 0;
  if (neg) ms = -ms;
  const std::int64_t d = ms / kMsPerDay;
  const std::int64_t h = (ms % kMsPerDay) / kMsPerHour;
  const std::int64_t m = (ms % kMsPerHour) / kMsPerMinute;
  const double s = static_cast<double>(ms % kMsPerMinute) / 1000.0;
  char buf[96];
  if (d > 0) {
    std::snprintf(buf, sizeof(buf), "%s%lldd %lldh %lldm", neg ? "-" : "",
                  static_cast<long long>(d), static_cast<long long>(h),
                  static_cast<long long>(m));
  } else if (h > 0) {
    std::snprintf(buf, sizeof(buf), "%s%lldh %lldm", neg ? "-" : "", static_cast<long long>(h),
                  static_cast<long long>(m));
  } else if (m > 0) {
    std::snprintf(buf, sizeof(buf), "%s%lldm %.1fs", neg ? "-" : "", static_cast<long long>(m),
                  s);
  } else {
    std::snprintf(buf, sizeof(buf), "%s%.1fs", neg ? "-" : "", s);
  }
  return buf;
}

}  // namespace drowsy::util
