// Simulated time and the deterministic calendar used by the idleness model.
//
// Drowsy-DC's idleness model (paper §III-A) indexes synthesized-idleness
// scores by four calendar coordinates: hour of day, day of week, day of
// month and day of year.  To keep every experiment reproducible we use a
// deterministic non-leap calendar: years are exactly 365 days with the
// usual month lengths, and the epoch (time zero) is Monday, January 1st of
// "year 0".
#pragma once

#include <cstdint>
#include <string>

namespace drowsy::util {

/// Simulated time in milliseconds since the epoch.  Signed so that
/// differences and "not yet scheduled" sentinels are representable.
using SimTime = std::int64_t;

inline constexpr SimTime kMsPerSecond = 1000;
inline constexpr SimTime kMsPerMinute = 60 * kMsPerSecond;
inline constexpr SimTime kMsPerHour = 60 * kMsPerMinute;
inline constexpr SimTime kMsPerDay = 24 * kMsPerHour;
inline constexpr SimTime kMsPerWeek = 7 * kMsPerDay;
inline constexpr SimTime kMsPerYear = 365 * kMsPerDay;

inline constexpr int kHoursPerDay = 24;
inline constexpr int kDaysPerWeek = 7;
inline constexpr int kDaysPerMonth = 31;  ///< max day-of-month index bound
inline constexpr int kMonthsPerYear = 12;
inline constexpr int kDaysPerYear = 365;
inline constexpr int kHoursPerYear = kDaysPerYear * kHoursPerDay;

/// Sentinel meaning "no time scheduled".
inline constexpr SimTime kNever = INT64_MAX;

/// Convenience constructors.
constexpr SimTime seconds(double s) { return static_cast<SimTime>(s * kMsPerSecond); }
constexpr SimTime minutes(double m) { return static_cast<SimTime>(m * kMsPerMinute); }
constexpr SimTime hours(double h) { return static_cast<SimTime>(h * kMsPerHour); }
constexpr SimTime days(double d) { return static_cast<SimTime>(d * kMsPerDay); }

/// Calendar decomposition of a SimTime instant.  All fields are 0-based.
struct CalendarTime {
  int year = 0;          ///< years since epoch
  int month = 0;         ///< 0 = January .. 11 = December
  int day_of_month = 0;  ///< 0 .. 30
  int day_of_week = 0;   ///< 0 = Monday .. 6 = Sunday
  int day_of_year = 0;   ///< 0 .. 364
  int hour = 0;          ///< 0 .. 23
  int hour_of_year = 0;  ///< 0 .. 8759 (day_of_year * 24 + hour)

  /// "Yn Mon D HH:00 (Www)" human-readable rendering, e.g. "Y1 Jul 20 14:00 (Tue)".
  [[nodiscard]] std::string to_string() const;
};

/// Decompose an instant into calendar coordinates.
[[nodiscard]] CalendarTime calendar_of(SimTime t);

/// Step `c` forward one hour: turns calendar_of(t) into
/// calendar_of(t + kMsPerHour) without its divisions and month scan, for
/// loops over consecutive hours.
void advance_hour(CalendarTime& c);

/// Number of whole hours elapsed since the epoch.
[[nodiscard]] constexpr std::int64_t hour_index(SimTime t) { return t / kMsPerHour; }

/// Start of the hour containing `t`.
[[nodiscard]] constexpr SimTime floor_hour(SimTime t) { return (t / kMsPerHour) * kMsPerHour; }

/// Start of the hour strictly after `t`.
[[nodiscard]] constexpr SimTime next_hour(SimTime t) { return floor_hour(t) + kMsPerHour; }

/// Length of month `m` (0-based) in days under the non-leap calendar.
[[nodiscard]] int days_in_month(int month);

/// Inverse of calendar_of for hour resolution: the SimTime at the start of
/// hour `hour` on day `day_of_year` of year `year`.
[[nodiscard]] SimTime time_of(int year, int day_of_year, int hour);

/// Render a duration as a compact human string ("2d 3h 4m 5.6s").
[[nodiscard]] std::string format_duration(SimTime ms);

}  // namespace drowsy::util
