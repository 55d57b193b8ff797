// Replicate-aware reporting: stddev/CI-95 per (scenario, policy) and
// Welch's t-test verdicts between policy pairs.
//
// The one place run results are grouped.  A bare mean cannot say whether
// the kWh gap between two policies on the same scenario is signal or seed
// noise (dev-fleet-idle and paper-sim-phases show exactly such ties), so
// this layer groups the per-run results by (scenario, policy), attaches
// sample stddev and a t-distribution 95% confidence half-width to every
// metric, and renders an energy verdict for each policy pair per
// scenario: "a < b (p=...)" when Welch's t-test rejects equal means at
// alpha, "tie" otherwise.  All emission is fixed-format and ordered by
// first appearance, so outputs are byte-stable for a deterministic batch.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/stats.hpp"

namespace drowsy::expctl {

/// Mean / spread of one metric across replicates.  stddev is the sample
/// standard deviation (n-1 denominator); ci95 is the half-width of the
/// t-distribution 95% confidence interval for the mean.  Both are 0 when
/// fewer than two replicates exist.
struct MetricStats {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;
};

/// Derive MetricStats from a filled accumulator.
[[nodiscard]] MetricStats metric_stats(const util::OnlineStats& stats);

/// One (scenario, policy) row across its replicate runs.
struct ReplicateRow {
  std::string scenario;
  std::string policy;
  std::size_t runs = 0;
  MetricStats kwh;
  MetricStats suspend_fraction;
  MetricStats sla;
  MetricStats wake_p99_ms;
  MetricStats migrations;
  std::uint64_t requests_total = 0;
  std::uint64_t wakes_total = 0;
};

/// Group per-run results by (scenario, policy) in first-appearance order
/// and compute replicate statistics.
[[nodiscard]] std::vector<ReplicateRow> summarize(const std::vector<scenario::RunResult>& results);

/// Welch's unequal-variance t-test.  Inputs are per-sample count, mean
/// and *sample* variance (n-1 denominator); df follows Welch–Satterthwaite.
struct WelchResult {
  double t = 0.0;
  double df = 0.0;
  double p = 1.0;  ///< two-sided
};

[[nodiscard]] WelchResult welch_t_test(std::size_t n1, double mean1, double var1,
                                       std::size_t n2, double mean2, double var2);

/// One metric's Welch verdict for a policy pair.  The verdict states the
/// direction of the mean difference ("a<b", "a>b") when the test rejects
/// equal means at alpha, "tie" otherwise, and "insufficient-replicates"
/// when either arm has fewer than two runs.  Which direction *wins* is
/// the metric's business: lower is better for kWh and wake-p99, higher
/// for SLA attainment.
struct MetricVerdict {
  double mean_a = 0.0;
  double mean_b = 0.0;
  WelchResult test;
  bool significant = false;  ///< p < alpha (and enough replicates)
  std::string verdict;
};

/// Verdicts for one policy pair on one scenario.  Energy alone can crown
/// a policy that saves kWh by sleeping through wakes, so the SLA and
/// wake-latency verdicts ride alongside: a genuine win is "kwh a<b"
/// without a significant SLA/wake regression.
struct PolicyComparison {
  std::string scenario;
  std::string policy_a;
  std::string policy_b;
  std::size_t runs_a = 0;
  std::size_t runs_b = 0;
  MetricVerdict kwh;       ///< energy (lower is better)
  MetricVerdict sla;       ///< SLA attainment (higher is better)
  MetricVerdict wake_p99;  ///< wake-latency p99 ms (lower is better)
};

/// All policy pairs per scenario, in first-appearance order, tested on
/// energy, SLA attainment and wake-p99 at significance level `alpha`.
[[nodiscard]] std::vector<PolicyComparison> compare_policies(
    const std::vector<scenario::RunResult>& results, double alpha = 0.05);

// --- emission ----------------------------------------------------------------

/// CSV with mean/stddev/ci95 triplets per metric.
[[nodiscard]] std::string to_csv(const std::vector<ReplicateRow>& rows);

/// The same rows as a JSON array.
[[nodiscard]] std::string to_json(const std::vector<ReplicateRow>& rows);

/// CSV of the policy-pair verdicts.
[[nodiscard]] std::string to_csv(const std::vector<PolicyComparison>& comparisons);

/// Human-readable table: mean ± ci95 per metric.
[[nodiscard]] std::string stats_table(const std::vector<ReplicateRow>& rows);

/// Human-readable verdict table.
[[nodiscard]] std::string comparison_table(const std::vector<PolicyComparison>& comparisons);

}  // namespace drowsy::expctl
