#include "expctl/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "util/rng.hpp"

namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;

namespace {

/// Synthetic per-run result; only the fields the report layer reads.
sc::RunResult run(const std::string& scenario, const std::string& policy,
                  std::uint64_t seed, double kwh, double sla = 0.99) {
  sc::RunResult r;
  r.scenario = scenario;
  r.policy = policy;
  r.seed = seed;
  r.kwh = kwh;
  r.sla_attainment = sla;
  r.suspend_fraction = 0.5;
  r.wake_latency_p99_ms = 900.0;
  r.migrations = 10;
  r.requests = 100;
  r.wakes = 20;
  return r;
}

/// n replicate results with deterministic noise around `mean`.
std::vector<sc::RunResult> noisy_runs(std::size_t n, double mean, double spread,
                                      std::uint64_t seed) {
  drowsy::util::Rng rng(seed);
  std::vector<sc::RunResult> results;
  for (std::size_t i = 0; i < n; ++i) {
    results.push_back(run("s", "p", i, mean + rng.uniform(-spread, spread)));
  }
  return results;
}

}  // namespace

TEST(Report, WelchAgreesWithKnownFixture) {
  // A = {1..5}: mean 3, sample variance 2.5; B = {3..7}: mean 5, variance 2.5.
  // Equal variances and counts make this exactly computable:
  //   t = (3 - 5) / sqrt(2.5/5 + 2.5/5) = -2,  df = 8  (Welch == pooled here),
  // and scipy.stats.ttest_ind gives p = 0.080517.
  const ec::WelchResult w = ec::welch_t_test(5, 3.0, 2.5, 5, 5.0, 2.5);
  EXPECT_NEAR(w.t, -2.0, 1e-12);
  EXPECT_NEAR(w.df, 8.0, 1e-9);
  EXPECT_NEAR(w.p, 0.080517, 5e-4);
}

TEST(Report, WelchUnequalVariancesLowerDf) {
  // Welch–Satterthwaite df must fall below the pooled 2n-2 when variances
  // differ: n1=n2=10, var1=1, var2=100 -> df ≈ 9.18.
  const ec::WelchResult w = ec::welch_t_test(10, 0.0, 1.0, 10, 0.0, 100.0);
  EXPECT_LT(w.df, 18.0);
  EXPECT_NEAR(w.df, 9.18, 0.05);
  EXPECT_NEAR(w.p, 1.0, 1e-9);  // identical means
}

TEST(Report, WelchDegenerateCases) {
  // Too few replicates: defined as "no evidence" (p = 1).
  EXPECT_DOUBLE_EQ(ec::welch_t_test(1, 3.0, 0.0, 5, 5.0, 2.5).p, 1.0);
  // Zero variance, equal means: perfect tie.
  EXPECT_DOUBLE_EQ(ec::welch_t_test(3, 2.0, 0.0, 3, 2.0, 0.0).p, 1.0);
  // Zero variance, different means: trivially distinct.
  EXPECT_DOUBLE_EQ(ec::welch_t_test(3, 2.0, 0.0, 3, 3.0, 0.0).p, 0.0);
}

TEST(Report, CiShrinksLikeOneOverSqrtN) {
  // Same noise distribution at n and 16n: the CI half-width must shrink
  // by ~4x (modulo the t-critical factor and sampling noise).
  const auto small = ec::summarize(noisy_runs(32, 100.0, 5.0, 7));
  const auto large = ec::summarize(noisy_runs(32 * 16, 100.0, 5.0, 7));
  ASSERT_EQ(small.size(), 1u);
  ASSERT_EQ(large.size(), 1u);
  const double ratio = small[0].kwh.ci95 / large[0].kwh.ci95;
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.3);
  // stddev itself stays roughly constant — only the CI tightens.
  EXPECT_NEAR(small[0].kwh.stddev, large[0].kwh.stddev,
              0.5 * small[0].kwh.stddev);
}

TEST(Report, SummarizeGroupsAndCounts) {
  const std::vector<sc::RunResult> results = {
      run("a", "drowsy-dc", 1, 10.0), run("a", "drowsy-dc", 2, 12.0),
      run("a", "oasis", 1, 14.0),     run("a", "oasis", 2, 16.0),
      run("b", "drowsy-dc", 1, 20.0),
  };
  const auto rows = ec::summarize(results);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].scenario, "a");
  EXPECT_EQ(rows[0].policy, "drowsy-dc");
  EXPECT_EQ(rows[0].runs, 2u);
  EXPECT_DOUBLE_EQ(rows[0].kwh.mean, 11.0);
  // Sample stddev of {10, 12} is sqrt(2).
  EXPECT_NEAR(rows[0].kwh.stddev, std::sqrt(2.0), 1e-12);
  // Counts are summed across replicates, not averaged.
  EXPECT_EQ(rows[0].requests_total, 200u);
  EXPECT_EQ(rows[0].wakes_total, 40u);
  EXPECT_EQ(rows[1].requests_total, 200u);
  EXPECT_EQ(rows[2].requests_total, 100u);
  EXPECT_EQ(rows[2].wakes_total, 20u);
  EXPECT_EQ(rows[2].scenario, "b");
  EXPECT_EQ(rows[2].runs, 1u);
  EXPECT_DOUBLE_EQ(rows[2].kwh.stddev, 0.0);  // single replicate: no spread
  EXPECT_DOUBLE_EQ(rows[2].kwh.ci95, 0.0);
}

TEST(Report, ComparePoliciesVerdicts) {
  // Clearly separated arms -> significant; overlapping arms -> tie.
  std::vector<sc::RunResult> results;
  drowsy::util::Rng rng(11);
  for (std::uint64_t i = 0; i < 8; ++i) {
    results.push_back(run("sep", "cheap", i, 10.0 + rng.uniform(-0.5, 0.5)));
    results.push_back(run("sep", "pricey", i, 20.0 + rng.uniform(-0.5, 0.5)));
    // Same per-replicate draw for both tied arms: equal means by
    // construction (nonzero variance), so t = 0 and p = 1 exactly.
    const double tied = 15.0 + rng.uniform(-1.0, 1.0);
    results.push_back(run("tied", "cheap", i, tied));
    results.push_back(run("tied", "pricey", i, tied));
  }
  const auto comparisons = ec::compare_policies(results, 0.05);
  ASSERT_EQ(comparisons.size(), 2u);
  EXPECT_EQ(comparisons[0].scenario, "sep");
  EXPECT_TRUE(comparisons[0].kwh.significant);
  EXPECT_EQ(comparisons[0].kwh.verdict, "a<b");  // cheap listed first, lower kWh
  EXPECT_LT(comparisons[0].kwh.test.p, 1e-6);
  EXPECT_EQ(comparisons[1].scenario, "tied");
  EXPECT_FALSE(comparisons[1].kwh.significant);
  EXPECT_EQ(comparisons[1].kwh.verdict, "tie");
  // Identical SLA in every run: the SLA verdict must be a tie everywhere.
  EXPECT_EQ(comparisons[0].sla.verdict, "tie");
}

TEST(Report, SlaVerdictCatchesSleepyWinner) {
  // "sleepy" wins on energy but misses wakes; the SLA verdict must flag
  // the regression instead of letting the kWh verdict stand alone.
  std::vector<sc::RunResult> results;
  drowsy::util::Rng rng(13);
  for (std::uint64_t i = 0; i < 8; ++i) {
    results.push_back(
        run("s", "sleepy", i, 10.0 + rng.uniform(-0.5, 0.5), 0.80 + rng.uniform(-0.02, 0.02)));
    results.push_back(
        run("s", "awake", i, 20.0 + rng.uniform(-0.5, 0.5), 0.99 + rng.uniform(-0.005, 0.005)));
  }
  const auto comparisons = ec::compare_policies(results, 0.05);
  ASSERT_EQ(comparisons.size(), 1u);
  EXPECT_EQ(comparisons[0].kwh.verdict, "a<b");  // sleepy saves energy...
  EXPECT_TRUE(comparisons[0].sla.significant);   // ...by missing wakes
  EXPECT_EQ(comparisons[0].sla.verdict, "a<b");  // lower SLA attainment
}

TEST(Report, SingleReplicateYieldsNoVerdict) {
  const std::vector<sc::RunResult> results = {run("s", "a", 1, 10.0),
                                              run("s", "b", 1, 20.0)};
  const auto comparisons = ec::compare_policies(results);
  ASSERT_EQ(comparisons.size(), 1u);
  EXPECT_FALSE(comparisons[0].kwh.significant);
  EXPECT_EQ(comparisons[0].kwh.verdict, "insufficient-replicates");
  EXPECT_EQ(comparisons[0].sla.verdict, "insufficient-replicates");
}

TEST(Report, EmissionShapes) {
  const std::vector<sc::RunResult> results = {
      run("s", "a", 1, 10.0), run("s", "a", 2, 12.0),
      run("s", "b", 1, 11.0), run("s", "b", 2, 13.0),
  };
  const auto rows = ec::summarize(results);
  const std::string csv = ec::to_csv(rows);
  EXPECT_EQ(csv.rfind("scenario,policy,runs,kwh_mean,kwh_stddev,kwh_ci95,", 0), 0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2 rows

  const std::string json = ec::to_json(rows);
  EXPECT_NE(json.find("\"ci95\": "), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  const auto comparisons = ec::compare_policies(results);
  const std::string vcsv = ec::to_csv(comparisons);
  EXPECT_EQ(vcsv.rfind("scenario,policy_a,policy_b,", 0), 0u);
  EXPECT_NE(vcsv.find("s,a,b,"), std::string::npos);

  EXPECT_NE(ec::stats_table(rows).find("±"), std::string::npos);
  EXPECT_NE(ec::comparison_table(comparisons).find("verdict"), std::string::npos);

  // Deterministic emission: same input, same bytes.
  EXPECT_EQ(ec::to_csv(rows), csv);
  EXPECT_EQ(ec::to_csv(ec::compare_policies(results)), vcsv);
}
