#include "expctl/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "scenario/batch_runner.hpp"
#include "util/math.hpp"

namespace drowsy::expctl {

namespace {

using scenario::num;

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

/// Per-(scenario, policy) accumulators over the run list.
struct Group {
  std::string scenario;
  std::string policy;
  util::OnlineStats kwh;
  util::OnlineStats suspend_fraction;
  util::OnlineStats sla;
  util::OnlineStats wake_p99_ms;
  util::OnlineStats migrations;
  std::uint64_t requests_total = 0;
  std::uint64_t wakes_total = 0;
};

std::vector<Group> group_runs(const std::vector<scenario::RunResult>& results) {
  std::vector<Group> groups;
  for (const scenario::RunResult& r : results) {
    Group* group = nullptr;
    for (Group& existing : groups) {
      if (existing.scenario == r.scenario && existing.policy == r.policy) {
        group = &existing;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(Group{});
      group = &groups.back();
      group->scenario = r.scenario;
      group->policy = r.policy;
    }
    group->kwh.add(r.kwh);
    group->suspend_fraction.add(r.suspend_fraction);
    group->sla.add(r.sla_attainment);
    group->wake_p99_ms.add(r.wake_latency_p99_ms);
    group->migrations.add(static_cast<double>(r.migrations));
    group->requests_total += r.requests;
    group->wakes_total += r.wakes;
  }
  return groups;
}

/// Sample variance (n-1 denominator) from a population-variance accumulator.
double sample_variance(const util::OnlineStats& stats) {
  const std::size_t n = stats.count();
  if (n < 2) return 0.0;
  return stats.variance() * static_cast<double>(n) / static_cast<double>(n - 1);
}

}  // namespace

MetricStats metric_stats(const util::OnlineStats& stats) {
  MetricStats m;
  m.n = stats.count();
  m.mean = stats.mean();
  if (m.n >= 2) {
    m.stddev = std::sqrt(sample_variance(stats));
    const double df = static_cast<double>(m.n - 1);
    const double t_crit = util::students_t_critical(0.05, df);
    m.ci95 = t_crit * m.stddev / std::sqrt(static_cast<double>(m.n));
  }
  return m;
}

std::vector<ReplicateRow> summarize(const std::vector<scenario::RunResult>& results) {
  std::vector<ReplicateRow> rows;
  for (const Group& g : group_runs(results)) {
    ReplicateRow row;
    row.scenario = g.scenario;
    row.policy = g.policy;
    row.runs = g.kwh.count();
    row.kwh = metric_stats(g.kwh);
    row.suspend_fraction = metric_stats(g.suspend_fraction);
    row.sla = metric_stats(g.sla);
    row.wake_p99_ms = metric_stats(g.wake_p99_ms);
    row.migrations = metric_stats(g.migrations);
    row.requests_total = g.requests_total;
    row.wakes_total = g.wakes_total;
    rows.push_back(std::move(row));
  }
  return rows;
}

WelchResult welch_t_test(std::size_t n1, double mean1, double var1, std::size_t n2,
                         double mean2, double var2) {
  WelchResult result;
  if (n1 < 2 || n2 < 2) return result;  // undefined; keep p = 1
  const double se1 = var1 / static_cast<double>(n1);
  const double se2 = var2 / static_cast<double>(n2);
  const double se = se1 + se2;
  if (se <= 0.0) {
    // Zero variance in both samples: identical means are a perfect tie,
    // different means are trivially distinct.
    result.t = mean1 == mean2 ? 0.0 : std::numeric_limits<double>::infinity() *
                                          (mean1 > mean2 ? 1.0 : -1.0);
    result.df = static_cast<double>(n1 + n2 - 2);
    result.p = mean1 == mean2 ? 1.0 : 0.0;
    return result;
  }
  result.t = (mean1 - mean2) / std::sqrt(se);
  // Welch–Satterthwaite degrees of freedom.
  const double denom = se1 * se1 / static_cast<double>(n1 - 1) +
                       se2 * se2 / static_cast<double>(n2 - 1);
  result.df = se * se / denom;
  result.p = util::students_t_two_sided_p(result.t, result.df);
  return result;
}

namespace {

MetricVerdict metric_verdict(const util::OnlineStats& a, const util::OnlineStats& b,
                             double alpha) {
  MetricVerdict v;
  v.mean_a = a.mean();
  v.mean_b = b.mean();
  if (a.count() < 2 || b.count() < 2) {
    v.verdict = "insufficient-replicates";
    return v;
  }
  v.test = welch_t_test(a.count(), v.mean_a, sample_variance(a), b.count(), v.mean_b,
                        sample_variance(b));
  v.significant = v.test.p < alpha;
  if (!v.significant) {
    v.verdict = "tie";
  } else {
    v.verdict = v.mean_a < v.mean_b ? "a<b" : "a>b";
  }
  return v;
}

}  // namespace

std::vector<PolicyComparison> compare_policies(const std::vector<scenario::RunResult>& results,
                                               double alpha) {
  const std::vector<Group> groups = group_runs(results);

  // Scenario order and per-scenario policy order, both by first appearance.
  std::vector<std::string> scenarios;
  for (const Group& g : groups) {
    if (std::find(scenarios.begin(), scenarios.end(), g.scenario) == scenarios.end()) {
      scenarios.push_back(g.scenario);
    }
  }

  std::vector<PolicyComparison> comparisons;
  for (const std::string& scenario : scenarios) {
    std::vector<const Group*> arms;
    for (const Group& g : groups) {
      if (g.scenario == scenario) arms.push_back(&g);
    }
    for (std::size_t i = 0; i < arms.size(); ++i) {
      for (std::size_t j = i + 1; j < arms.size(); ++j) {
        const Group& a = *arms[i];
        const Group& b = *arms[j];
        PolicyComparison cmp;
        cmp.scenario = scenario;
        cmp.policy_a = a.policy;
        cmp.policy_b = b.policy;
        cmp.runs_a = a.kwh.count();
        cmp.runs_b = b.kwh.count();
        cmp.kwh = metric_verdict(a.kwh, b.kwh, alpha);
        cmp.sla = metric_verdict(a.sla, b.sla, alpha);
        cmp.wake_p99 = metric_verdict(a.wake_p99_ms, b.wake_p99_ms, alpha);
        comparisons.push_back(std::move(cmp));
      }
    }
  }
  return comparisons;
}

// --- emission ----------------------------------------------------------------

namespace {

void append_stats_columns(std::string& out, const MetricStats& m) {
  out += num(m.mean) + "," + num(m.stddev) + "," + num(m.ci95);
}

void append_stats_json(std::string& out, const char* name, const MetricStats& m) {
  out += std::string("\"") + name + "\": {\"mean\": " + num(m.mean) +
         ", \"stddev\": " + num(m.stddev) + ", \"ci95\": " + num(m.ci95) + "}";
}

}  // namespace

std::string to_csv(const std::vector<ReplicateRow>& rows) {
  std::string out =
      "scenario,policy,runs,"
      "kwh_mean,kwh_stddev,kwh_ci95,"
      "suspend_fraction_mean,suspend_fraction_stddev,suspend_fraction_ci95,"
      "sla_mean,sla_stddev,sla_ci95,"
      "wake_p99_ms_mean,wake_p99_ms_stddev,wake_p99_ms_ci95,"
      "migrations_mean,migrations_stddev,migrations_ci95,"
      "requests_total,wakes_total\n";
  for (const ReplicateRow& r : rows) {
    // Appending piecewise (no operator+ chains) keeps GCC's -O3
    // -Wrestrict from flagging the self-append as a potential overlap.
    out += r.scenario;
    out += ",";
    out += r.policy;
    out += ",";
    out += std::to_string(r.runs);
    out += ",";
    append_stats_columns(out, r.kwh);
    out += ",";
    append_stats_columns(out, r.suspend_fraction);
    out += ",";
    append_stats_columns(out, r.sla);
    out += ",";
    append_stats_columns(out, r.wake_p99_ms);
    out += ",";
    append_stats_columns(out, r.migrations);
    out += ",";
    out += std::to_string(r.requests_total);
    out += ",";
    out += std::to_string(r.wakes_total);
    out += "\n";
  }
  return out;
}

std::string to_json(const std::vector<ReplicateRow>& rows) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ReplicateRow& r = rows[i];
    out += "  {\"scenario\": " + quoted(r.scenario) + ", \"policy\": " + quoted(r.policy) +
           ", \"runs\": " + std::to_string(r.runs) + ", ";
    append_stats_json(out, "kwh", r.kwh);
    out += ", ";
    append_stats_json(out, "suspend_fraction", r.suspend_fraction);
    out += ", ";
    append_stats_json(out, "sla", r.sla);
    out += ", ";
    append_stats_json(out, "wake_p99_ms", r.wake_p99_ms);
    out += ", ";
    append_stats_json(out, "migrations", r.migrations);
    out += ", \"requests_total\": " + std::to_string(r.requests_total) +
           ", \"wakes_total\": " + std::to_string(r.wakes_total) + "}";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

namespace {

void append_verdict_columns(std::string& out, const MetricVerdict& v) {
  out += num(v.mean_a);
  out += ",";
  out += num(v.mean_b);
  out += ",";
  out += num(v.test.t);
  out += ",";
  out += num(v.test.df);
  out += ",";
  out += num(v.test.p);
  out += ",";
  out += v.significant ? "1" : "0";
  out += ",";
  out += v.verdict;
}

}  // namespace

std::string to_csv(const std::vector<PolicyComparison>& comparisons) {
  std::string out =
      "scenario,policy_a,policy_b,runs_a,runs_b,"
      "kwh_a,kwh_b,kwh_t,kwh_df,kwh_p,kwh_significant,kwh_verdict,"
      "sla_a,sla_b,sla_t,sla_df,sla_p,sla_significant,sla_verdict,"
      "wake_p99_a,wake_p99_b,wake_p99_t,wake_p99_df,wake_p99_p,"
      "wake_p99_significant,wake_p99_verdict\n";
  for (const PolicyComparison& c : comparisons) {
    out += c.scenario;
    out += ",";
    out += c.policy_a;
    out += ",";
    out += c.policy_b;
    out += ",";
    out += std::to_string(c.runs_a);
    out += ",";
    out += std::to_string(c.runs_b);
    out += ",";
    append_verdict_columns(out, c.kwh);
    out += ",";
    append_verdict_columns(out, c.sla);
    out += ",";
    append_verdict_columns(out, c.wake_p99);
    out += "\n";
  }
  return out;
}

std::string stats_table(const std::vector<ReplicateRow>& rows) {
  std::string out =
      "scenario              policy          runs            kWh            susp%"
      "             SLA%\n";
  char buf[200];
  for (const ReplicateRow& r : rows) {
    std::snprintf(buf, sizeof(buf), "%-21s %-14s %4zu  %8.2f ±%5.2f  %7.1f ±%4.1f  %7.1f ±%4.1f\n",
                  r.scenario.c_str(), r.policy.c_str(), r.runs, r.kwh.mean, r.kwh.ci95,
                  100.0 * r.suspend_fraction.mean, 100.0 * r.suspend_fraction.ci95,
                  100.0 * r.sla.mean, 100.0 * r.sla.ci95);
    out += buf;
  }
  return out;
}

std::string comparison_table(const std::vector<PolicyComparison>& comparisons) {
  std::string out =
      "scenario              policy a        policy b          kWh a     kWh b"
      "        p  kWh-verdict   SLA a%   SLA b%    sla-p  sla-verdict\n";
  char buf[240];
  for (const PolicyComparison& c : comparisons) {
    std::snprintf(buf, sizeof(buf),
                  "%-21s %-15s %-15s %8.2f  %8.2f  %7.4f  %-12s %7.2f  %7.2f  %7.4f  %s\n",
                  c.scenario.c_str(), c.policy_a.c_str(), c.policy_b.c_str(),
                  c.kwh.mean_a, c.kwh.mean_b, c.kwh.test.p, c.kwh.verdict.c_str(),
                  100.0 * c.sla.mean_a, 100.0 * c.sla.mean_b, c.sla.test.p,
                  c.sla.verdict.c_str());
    out += buf;
  }
  return out;
}

}  // namespace drowsy::expctl
