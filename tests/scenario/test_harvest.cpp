// harvest() reads a finished run straight off the live cluster and
// request fabric; every RunResult field must agree with that state.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "scenario/scenario.hpp"

namespace sc = drowsy::scenario;
namespace s = drowsy::sim;
namespace u = drowsy::util;

namespace {

/// Three hosts for four two-slot VMs, so consolidation leaves at least one
/// host free to spend the day in S3; one simulated day after pretraining.
std::unique_ptr<sc::ScenarioRun> finished_run() {
  sc::ScenarioSpec spec;
  spec.name = "harvest";
  spec.hosts = 3;
  spec.host_template = {"", 8, 16384, 2};
  spec.vms = {
      {.name_prefix = "backup",
       .count = 2,
       .workload = {.kind = sc::TraceKind::DailyBackup, .hour = 2}},
      {.name_prefix = "busy",
       .count = 2,
       .workload = {.kind = sc::TraceKind::LlmuConstant, .noise = 0.02}},
  };
  spec.pretrain_days = 2;
  spec.duration_days = 1;
  spec.request_rate_per_hour = 30.0;
  spec.seed = 61;
  auto run = sc::build(spec, sc::Policy::DrowsyDc, spec.seed);
  run->controller->pretrain_models(static_cast<std::int64_t>(spec.pretrain_days) *
                                   u::kHoursPerDay);
  run->controller->run_hours(static_cast<std::int64_t>(spec.duration_days) *
                             u::kHoursPerDay);
  return run;
}

}  // namespace

TEST(Harvest, SuspendFractionsMatchTheLiveCluster) {
  const auto run = finished_run();
  const sc::RunResult r = sc::harvest("harvest", *run);
  const auto& hosts = run->cluster.hosts();
  ASSERT_EQ(r.host_suspend_fraction.size(), hosts.size());
  double s3_ms = 0.0;
  bool any_suspended = false;
  int suspends = 0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_EQ(r.host_suspend_fraction[i], hosts[i]->suspended_fraction(0)) << i;
    s3_ms += static_cast<double>(hosts[i]->time_in(s::PowerState::S3));
    any_suspended = any_suspended || hosts[i]->time_in(s::PowerState::S3) > 0;
    suspends += hosts[i]->suspend_count();
  }
  ASSERT_TRUE(any_suspended) << "the run must exercise S3 accounting";
  const double host_ms =
      static_cast<double>(hosts.size()) * static_cast<double>(run->queue.now());
  EXPECT_EQ(r.suspend_fraction, s3_ms / host_ms);
  EXPECT_GT(r.suspend_fraction, 0.0);
  EXPECT_LT(r.suspend_fraction, 1.0);
  EXPECT_EQ(r.suspends, suspends);
}

TEST(Harvest, EnergyAndRequestsMatchTheLiveCluster) {
  const auto run = finished_run();
  const sc::RunResult r = sc::harvest("harvest", *run);
  EXPECT_EQ(r.scenario, "harvest");
  EXPECT_EQ(r.policy, "drowsy-dc");
  EXPECT_EQ(r.simulated_hours, u::hour_index(run->queue.now()));
  EXPECT_GT(r.kwh, 0.0);
  EXPECT_EQ(r.kwh, run->cluster.total_kwh());
  EXPECT_EQ(r.migrations, run->cluster.total_migrations());

  const s::RequestStats& stats = run->controller->fabric().stats();
  EXPECT_GT(r.requests, 0u);
  EXPECT_EQ(r.requests, stats.total);
  EXPECT_EQ(r.wakes, stats.woke_host);
  EXPECT_EQ(r.sla_attainment, stats.sla_attainment());
  ASSERT_FALSE(stats.wake_latencies_ms.empty());
  EXPECT_EQ(r.wake_latency_p99_ms, stats.wake_latencies_ms.quantile(0.99));
}
