// Byte-identity of the fig3 port: the study path (declarative grid ->
// expctl::expand -> parallel BatchRunner -> reducer) against the legacy
// bench path captured before the bespoke loop was deleted from
// bench/fig3_suspending_module.cpp.
//
// legacy_fig3_csv() below is that capture: the pre-port driver shape — a
// hand-rolled nested loop that builds each grid point's spec itself,
// executes it with a direct run_one() call (no sweep file, no expand, no
// BatchRunner) and formats its own rows.  (The port also moved the
// oscillation experiment from a hand-wired 1-host cluster to scenario
// altitude — that deviation is documented in docs/studies.md; what this
// test freezes is the loop that produced the figure at the moment of the
// port.)  If the study's grid order, axis naming, seed derivation or
// reduction ever drifts from what the bespoke loop computed, this diff
// breaks byte-for-byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "scenario/registry.hpp"
#include "study/study.hpp"

namespace sc = drowsy::scenario;
namespace st = drowsy::study;

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// The legacy bench loop, frozen at the port (duration shrunk through
/// the same `days` knob the study exposes so the comparison stays
/// test-fast).  Deliberately NOT written in terms of src/study: every
/// grid point is built and run by hand, the way the bench did it.
std::string legacy_fig3_csv(int days, double rate) {
  std::string out =
      "scenario,policy,grace,grace_max_s,suspends,suspends_per_day,suspended_pct,"
      "wakes,wake_p99_ms,kwh\n";
  const drowsy::util::SimTime grace_tops_ms[] = {15000, 30000, 60000, 120000};
  for (const drowsy::util::SimTime grace_ms : grace_tops_ms) {
    for (const sc::Policy policy : {sc::Policy::DrowsyDc, sc::Policy::NeatS3}) {
      sc::ScenarioSpec spec = sc::ScenarioRegistry::builtin().at("fig3-oscillation");
      spec.duration_days = days;
      spec.request_rate_per_hour = rate;
      spec.grace_max = grace_ms;
      spec.grace_min = std::min(spec.grace_min, grace_ms);
      spec.name += ".g" + std::to_string(grace_ms);
      const sc::RunResult r = sc::run_one(spec, policy, spec.seed);
      const bool grace_on = policy == sc::Policy::DrowsyDc;
      const double sim_days =
          static_cast<double>(r.simulated_hours) / drowsy::util::kHoursPerDay;
      out += r.scenario + "," + r.policy + "," + (grace_on ? "on" : "off") + "," +
             std::to_string(grace_ms / 1000) + "," + std::to_string(r.suspends) + "," +
             num(sim_days > 0.0 ? r.suspends / sim_days : 0.0) + "," +
             num(100.0 * r.suspend_fraction) + "," + std::to_string(r.wakes) + "," +
             num(r.wake_latency_p99_ms) + "," + num(r.kwh) + "\n";
    }
  }
  return out;
}

TEST(Fig3LegacyDiff, StudyPathReproducesTheLegacyBenchByteForByte) {
  const st::Study* found = st::StudyRegistry::builtin().find("fig3-grace-ablation");
  ASSERT_NE(found, nullptr);
  const st::Study& study = *found;
  st::StudyParams params = study.params;
  params.set("days", 1);

  const std::string legacy = legacy_fig3_csv(1, params.get("rate"));
  // 3 worker threads on an 8-job grid: the comparison also re-proves
  // that BatchRunner's job-order results make threading invisible.
  const st::StudyOutcome outcome = st::run_study(study, params, 3);
  EXPECT_EQ(outcome.csv, legacy);
}

}  // namespace
