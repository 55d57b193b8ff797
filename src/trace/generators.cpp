#include "trace/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/math.hpp"
#include "util/sim_time.hpp"

namespace drowsy::trace {

namespace u = drowsy::util;

namespace {

/// Iterate over every hour of `years`, computing a level from the calendar
/// coordinates of that hour.
template <typename LevelFn>
ActivityTrace generate(std::size_t years, std::string name, LevelFn&& level_of) {
  const std::size_t total = years * u::kHoursPerYear;
  std::vector<double> hours;
  hours.reserve(total);
  u::CalendarTime c = u::calendar_of(0);
  for (std::size_t h = 0; h < total; ++h, u::advance_hour(c)) {
    hours.push_back(u::clamp(level_of(c, h), 0.0, 1.0));
  }
  return ActivityTrace(std::move(hours), std::move(name));
}

double jittered(double level, double noise, u::Rng& rng) {
  if (noise <= 0.0 || level <= 0.0) return level;
  return u::clamp(level + rng.uniform(-noise, noise), 0.0, 1.0);
}

}  // namespace

ActivityTrace daily_backup(const GenOptions& opts, int hour, int duration_hours,
                           double level) {
  u::Rng rng(opts.seed);
  return generate(opts.years, "daily-backup", [&](const u::CalendarTime& c, std::size_t) {
    const bool active = c.hour >= hour && c.hour < hour + duration_hours;
    return active ? jittered(level, opts.noise, rng) : 0.0;
  });
}

ActivityTrace comic_strips(const GenOptions& opts) {
  u::Rng rng(opts.seed);
  return generate(opts.years, "comic-strips", [&](const u::CalendarTime& c, std::size_t) {
    // Publication days: Monday (0), Wednesday (2), Friday (4); the strip
    // goes out in the morning and readers trickle in for a few hours.
    // July (month 6) and August (month 7) are holiday months: no strip.
    if (c.month == 6 || c.month == 7) return 0.0;
    const bool pub_day = c.day_of_week == 0 || c.day_of_week == 2 || c.day_of_week == 4;
    if (!pub_day) return 0.0;
    if (c.hour < 6 || c.hour > 11) return 0.0;
    const double peak = 0.35;
    const double falloff = static_cast<double>(c.hour - 6) / 6.0;  // decays over the morning
    return jittered(peak * (1.0 - falloff), opts.noise, rng);
  });
}

ActivityTrace llmu_constant(const GenOptions& opts, double level) {
  u::Rng rng(opts.seed);
  return generate(opts.years, "llmu-constant", [&](const u::CalendarTime&, std::size_t) {
    // Mostly used: high load with mild fluctuation, never a fully idle hour.
    const double base = level + 0.15 * std::sin(rng.uniform(0.0, 6.283));
    return std::max(0.05, jittered(base, opts.noise, rng));
  });
}

namespace {

/// Structural description of one Fig. 1-style production VM.
struct LlmiTemplate {
  std::vector<int> active_weekdays;  ///< 0 = Monday
  int start_hour;                    ///< first active hour of the day
  int span_hours;                    ///< consecutive active hours
  double amplitude;                  ///< peak activity (Fig. 1 peaks ≈ 10–20 %)
};

/// The five monitored production VMs (paper V3..V7; V3 and V4 share
/// variant 0's workload — the caller reuses the same trace object).
/// Table II labels the periodicity of these traces "daily, weekly": most
/// have a daily burst at characteristic hours, with weekly modulation
/// (weekday-only services); one is purely weekly.
const LlmiTemplate kNutanixTemplates[5] = {
    // V3/V4: mid-morning burst every day, ~20 % peak (Fig. 1).
    {{0, 1, 2, 3, 4, 5, 6}, 9, 3, 0.20},
    // V5: early-morning batch every day, ~12 %.
    {{0, 1, 2, 3, 4, 5, 6}, 5, 2, 0.12},
    // V6: single long weekly run on Saturday, ~18 % (distinct line in Fig. 1).
    {{5}, 8, 6, 0.18},
    // V7: weekday evening reporting job, ~10 %.
    {{0, 1, 2, 3, 4}, 19, 2, 0.10},
    // V8: afternoon sync every day, ~15 %.
    {{0, 1, 2, 3, 4, 5, 6}, 14, 3, 0.15},
};

ActivityTrace llmi_from_template(const LlmiTemplate& tpl, std::size_t years,
                                 double noise, std::uint64_t seed, std::string name) {
  u::Rng rng(seed);
  return generate(years, std::move(name), [&](const u::CalendarTime& c, std::size_t) {
    const bool day_on =
        std::find(tpl.active_weekdays.begin(), tpl.active_weekdays.end(), c.day_of_week) !=
        tpl.active_weekdays.end();
    if (!day_on) return 0.0;
    if (c.hour < tpl.start_hour || c.hour >= tpl.start_hour + tpl.span_hours) return 0.0;
    // Triangular ramp within the active span, like the bursts of Fig. 1.
    const double pos = static_cast<double>(c.hour - tpl.start_hour);
    const double mid = static_cast<double>(tpl.span_hours - 1) / 2.0;
    const double shape =
        tpl.span_hours == 1 ? 1.0 : 1.0 - std::abs(pos - mid) / (mid + 1.0);
    return jittered(tpl.amplitude * shape, noise, rng);
  });
}

}  // namespace

ActivityTrace nutanix_like(std::size_t variant, const GenOptions& opts) {
  assert(variant < 5);
  return llmi_from_template(kNutanixTemplates[variant], opts.years, opts.noise,
                            opts.seed + variant, "real-trace-" + std::to_string(variant + 1));
}

ActivityTrace diploma_results(const GenOptions& opts) {
  u::Rng rng(opts.seed);
  return generate(opts.years, "diploma-results", [&](const u::CalendarTime& c, std::size_t) {
    // July 20th (month 6, day_of_month 19), 14:00 and 15:00: the rush.
    if (c.month == 6 && c.day_of_month == 19 && (c.hour == 14 || c.hour == 15)) {
      return jittered(0.9, opts.noise, rng);
    }
    // The following days still see stragglers.
    if (c.month == 6 && c.day_of_month >= 20 && c.day_of_month <= 22 && c.hour >= 10 &&
        c.hour <= 18) {
      return jittered(0.08, opts.noise, rng);
    }
    return 0.0;
  });
}

ActivityTrace office_hours(const GenOptions& opts, double level) {
  u::Rng rng(opts.seed);
  return generate(opts.years, "office-hours", [&](const u::CalendarTime& c, std::size_t) {
    if (c.day_of_week >= 5) return 0.0;  // weekend
    if (c.hour < 9 || c.hour >= 17) return 0.0;
    return jittered(level, opts.noise, rng);
  });
}

ActivityTrace end_of_month(const GenOptions& opts, int days_active, double level) {
  u::Rng rng(opts.seed);
  return generate(opts.years, "end-of-month", [&](const u::CalendarTime& c, std::size_t) {
    const int month_len = u::days_in_month(c.month);
    if (c.day_of_month < month_len - days_active) return 0.0;
    if (c.hour < 1 || c.hour > 5) return 0.0;  // overnight batch window
    return jittered(level, opts.noise, rng);
  });
}

ActivityTrace google_like_llmu(const GenOptions& opts) {
  u::Rng rng(opts.seed);
  // Random-walk utilization between 0.35 and 0.95 with diurnal modulation,
  // in the spirit of Google cluster traces: busy, correlated, never idle.
  double walk = rng.uniform(0.5, 0.8);
  return generate(opts.years, "google-llmu", [&](const u::CalendarTime& c, std::size_t) {
    walk += rng.normal(0.0, 0.03);
    walk = u::clamp(walk, 0.35, 0.95);
    const double diurnal = 0.1 * std::sin((static_cast<double>(c.hour) - 6.0) / 24.0 * 6.283);
    return u::clamp(walk + diurnal, 0.1, 1.0);
  });
}

ActivityTrace random_llmi(std::uint64_t seed, std::size_t years) {
  u::Rng rng(seed);
  LlmiTemplate tpl;
  const int day_count = static_cast<int>(rng.uniform_int(1, 5));
  std::vector<int> days = {0, 1, 2, 3, 4, 5, 6};
  for (int i = 0; i < day_count; ++i) {
    const auto pick = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(days.size()) - 1));
    tpl.active_weekdays.push_back(days[pick]);
    days.erase(days.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  tpl.start_hour = static_cast<int>(rng.uniform_int(0, 20));
  tpl.span_hours = static_cast<int>(rng.uniform_int(1, 4));
  tpl.amplitude = rng.uniform(0.05, 0.25);
  return llmi_from_template(tpl, years, /*noise=*/0.02, seed ^ 0xBEEF,
                            "random-llmi-" + std::to_string(seed));
}

}  // namespace drowsy::trace
