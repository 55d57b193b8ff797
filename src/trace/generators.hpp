// Workload-trace generators.
//
// These reproduce the paper's evaluation inputs:
//  * Table II's trace catalogue for the idleness-model study (Fig. 4):
//    daily backup, thrice-weekly comic strips with a July/August holiday
//    gap, "real traces" from a production DC extended to three years, and
//    an always-active LLMU trace.
//  * Figure 1's example production workloads (bursty LLMI traces with
//    activity peaking around 10–20 %, where VM3 and VM4 receive the exact
//    same workload).
//  * Google-trace-like LLMU series for the simulation study (§VI-B).
//
// The authors' Nutanix production traces are proprietary, so we
// synthesize traces with the same periodic structure at the four scales
// the paper identifies (hour-of-day, day-of-week, day-of-month,
// month-of-year).
#pragma once

#include <cstddef>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace drowsy::trace {

/// Common knobs for the generators.
struct GenOptions {
  std::size_t years = 3;       ///< trace length (Fig. 4 evaluates 3 years)
  double noise = 0.0;          ///< additive uniform noise amplitude on active hours
  std::uint64_t seed = 42;     ///< RNG seed when a generator is stochastic
};

/// Table II(a): "backup service running each day at 2am".
/// Active (level `level`) for `duration_hours` starting at `hour`; idle
/// otherwise.
[[nodiscard]] ActivityTrace daily_backup(const GenOptions& opts = {}, int hour = 2,
                                         int duration_hours = 1, double level = 0.8);

/// Table II(b): "online comic strip publication, three times a week,
/// none in July nor August".  Active on Monday/Wednesday/Friday for a few
/// morning hours, completely idle during the two holiday months.
[[nodiscard]] ActivityTrace comic_strips(const GenOptions& opts = {});

/// Table II(h): long-lived mostly-used VM — essentially always active.
[[nodiscard]] ActivityTrace llmu_constant(const GenOptions& opts = {}, double level = 0.75);

/// Figure 1-style bursty LLMI production trace ("real trace k" of
/// Table II c–g).  One week of structure — characteristic active
/// hours-of-day on a subset of weekdays, amplitudes in the 5–25 % band —
/// tiled to `opts.years` with small per-occurrence jitter.  `variant`
/// selects one of the five reconstructed VMs (0-based); variants 2 and 3
/// (the paper's VM3/VM4) receive the exact same workload.
[[nodiscard]] ActivityTrace nutanix_like(std::size_t variant, const GenOptions& opts = {});

/// The paper's introduction example: a national diploma-results website,
/// "mostly used at some specific hours (2 p.m., 3 p.m.) of a specific day
/// (20th) of one month (July), every year", with faint background traffic.
[[nodiscard]] ActivityTrace diploma_results(const GenOptions& opts = {});

/// Office-hours diurnal/weekly service: active 9–17 on weekdays.
[[nodiscard]] ActivityTrace office_hours(const GenOptions& opts = {}, double level = 0.5);

/// End-of-month batch: active the last `days` days of every month.
[[nodiscard]] ActivityTrace end_of_month(const GenOptions& opts = {}, int days_active = 2,
                                         double level = 0.7);

/// Google-trace-like LLMU series: high utilization with stochastic
/// variation, never idle for long (simulation study §VI-B).
[[nodiscard]] ActivityTrace google_like_llmu(const GenOptions& opts = {});

/// A randomized LLMI trace for population studies: picks a random periodic
/// template (hour-of-day/day-of-week/day-of-month pattern) per `seed`.
[[nodiscard]] ActivityTrace random_llmi(std::uint64_t seed, std::size_t years = 1);

}  // namespace drowsy::trace
