#include "core/controller.hpp"

#include <gtest/gtest.h>

#include "obs/event_profile.hpp"
#include "trace/generators.hpp"

namespace c = drowsy::core;
namespace s = drowsy::sim;
namespace n = drowsy::net;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace {

struct ControllerFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};
  n::SdnSwitch sw{q};

  s::Host& add_host() {
    return cluster.add_host(
        s::HostSpec{"P" + std::to_string(cluster.hosts().size() + 1), 8, 16384, 2});
  }
  s::Vm& add_vm(t::ActivityTrace trace) {
    return cluster.add_vm(s::VmSpec{"V" + std::to_string(cluster.vms().size() + 1), 2, 6144},
                          std::move(trace));
  }
};

}  // namespace

TEST_F(ControllerFixture, IdleClusterSuspendsEverything) {
  auto& h1 = add_host();
  auto& h2 = add_host();
  auto& vm = add_vm(t::ActivityTrace(std::vector<double>(100 * 24, 0.0)));
  cluster.place(vm.id(), h1.id());

  c::Controller controller(cluster, sw);
  controller.install();
  controller.run_hours(6);

  EXPECT_EQ(h1.state(), s::PowerState::S3);
  EXPECT_EQ(h2.state(), s::PowerState::S3);
  EXPECT_GT(h1.suspended_fraction(0), 0.9);
}

TEST_F(ControllerFixture, HealthyWakingPairSchedulesNoHeartbeats) {
  // The mirrored standby is always deployed, yet while its primary
  // lives it costs no events: outside netsim nothing else beats, so a
  // one-day run dispatches no heartbeat-tagged event at all.
  auto& h1 = add_host();
  std::vector<double> pattern(100 * 24, 0.0);
  for (std::size_t h = 3; h < pattern.size(); h += 4) pattern[h] = 0.4;
  auto& vm = add_vm(t::ActivityTrace(std::move(pattern)));
  cluster.place(vm.id(), h1.id());

  drowsy::obs::EventProfile profile;
  q.set_profile(&profile);
  c::ControllerOptions opts;
  opts.requests.base_rate_per_hour = 60;
  c::Controller controller(cluster, sw, opts);
  controller.install();
  controller.run_hours(24);
  q.set_profile(nullptr);

  EXPECT_GT(profile.total_events(), 0u);
  EXPECT_EQ(profile.events(drowsy::obs::EventTag::Heartbeat), 0u);
  EXPECT_FALSE(controller.waking_standby()->active());
}

TEST_F(ControllerFixture, BusyVmKeepsHostAwake) {
  auto& h1 = add_host();
  auto& vm = add_vm(t::ActivityTrace(std::vector<double>(100 * 24, 0.8)));
  cluster.place(vm.id(), h1.id());

  c::ControllerOptions opts;
  opts.requests.base_rate_per_hour = 60;
  c::Controller controller(cluster, sw, opts);
  controller.install();
  controller.run_hours(6);

  EXPECT_EQ(h1.state(), s::PowerState::S0);
  EXPECT_LT(h1.suspended_fraction(0), 0.05);
  EXPECT_GT(controller.fabric().stats().total, 0u);
}

TEST_F(ControllerFixture, RequestWakesSuspendedHostAndMeetsSla) {
  auto& h1 = add_host();
  // Idle for 3 hours, active the 4th.
  std::vector<double> pattern(100 * 24, 0.0);
  for (std::size_t h = 3; h < pattern.size(); h += 4) pattern[h] = 0.4;
  auto& vm = add_vm(t::ActivityTrace(std::move(pattern)));
  cluster.place(vm.id(), h1.id());

  c::ControllerOptions opts;
  opts.requests.base_rate_per_hour = 100;
  opts.requests.sla_ms = 200.0;
  c::Controller controller(cluster, sw, opts);
  controller.install();
  controller.run_hours(12);

  const auto& stats = controller.fabric().stats();
  EXPECT_GT(stats.total, 0u);
  EXPECT_GT(stats.woke_host, 0u) << "requests must wake the drowsy host";
  EXPECT_GT(h1.suspended_fraction(0), 0.3);
  // The wake penalty (~0.8 s quick resume) hits only the first requests of
  // each active burst: the overall SLA stays high (paper: >99%).
  EXPECT_GT(stats.sla_attainment(), 0.9);
}

TEST_F(ControllerFixture, QuickResumeOptionPropagates) {
  auto& h = add_host();
  c::ControllerOptions opts;
  opts.quick_resume = false;
  c::Controller controller(cluster, sw, opts);
  controller.install();
  EXPECT_FALSE(h.quick_resume());
}

TEST_F(ControllerFixture, PlaceAllUnplacedUsesWeigher) {
  add_host();
  add_host();
  add_vm(t::ActivityTrace({0.5}));
  add_vm(t::ActivityTrace({0.5}));
  add_vm(t::ActivityTrace({0.5}));
  c::Controller controller(cluster, sw);
  controller.install();
  controller.place_all_unplaced();
  for (const auto& vm : cluster.vms()) {
    EXPECT_NE(cluster.host_of(vm->id()), nullptr);
  }
}

TEST_F(ControllerFixture, PretrainModelsLearnsWithoutSimulating) {
  add_host();
  t::GenOptions o;
  o.years = 1;
  auto& vm = add_vm(t::daily_backup(o));
  cluster.place(vm.id(), 0);
  c::Controller controller(cluster, sw);
  controller.install();
  controller.pretrain_models(14 * 24);
  EXPECT_EQ(controller.models().model(vm.id()).observed_hours(), 14u * 24u);
  // 3am is idle in the backup trace.
  const auto c3am = u::calendar_of(u::hours(3.0));
  EXPECT_TRUE(controller.models().model(vm.id()).ip(c3am).predicts_idle());
}

TEST_F(ControllerFixture, ScheduledWakeForTimerService) {
  auto& h1 = add_host();
  auto& vm = add_vm(t::ActivityTrace(std::vector<double>(100 * 24, 0.0)));
  cluster.place(vm.id(), h1.id());
  // A backup service that runs at 02:00 every day for ten minutes.
  int runs = 0;
  vm.add_scheduled_job(
      q, "backup",
      [](u::SimTime now) {
        const auto cal = u::calendar_of(now);
        u::SimTime next = u::time_of(cal.year, cal.day_of_year, /*hour=*/2);
        while (next <= now) next += u::kMsPerDay;
        return next;
      },
      /*work_duration=*/u::minutes(10), [&runs](u::SimTime) { ++runs; });

  c::Controller controller(cluster, sw);
  controller.install();
  controller.run_hours(30);

  EXPECT_GE(runs, 1) << "the 2am backup must run despite suspension";
  EXPECT_GT(controller.waking_primary().stats().scheduled_wakes, 0u)
      << "the waking module must have woken the host for the timer";
  EXPECT_GT(h1.suspended_fraction(0), 0.5);
}

TEST_F(ControllerFixture, NeverSuspendOptionKeepsHostsUp) {
  auto& h1 = add_host();
  auto& vm = add_vm(t::ActivityTrace(std::vector<double>(100 * 24, 0.0)));
  cluster.place(vm.id(), h1.id());
  c::ControllerOptions opts;
  opts.drowsy.suspend.rule = c::SuspendRule::Never;
  c::Controller controller(cluster, sw, opts);
  controller.install();
  controller.run_hours(6);
  EXPECT_EQ(h1.state(), s::PowerState::S0);
  EXPECT_EQ(h1.suspend_count(), 0);
}

TEST_F(ControllerFixture, HourEndHookObservesEveryHour) {
  add_host();
  auto& vm = add_vm(t::ActivityTrace({0.0}));
  cluster.place(vm.id(), 0);
  c::Controller controller(cluster, sw);
  controller.install();
  std::vector<std::int64_t> hours;
  controller.run_hours(5, [&hours](std::int64_t h) { hours.push_back(h); });
  EXPECT_EQ(hours, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST_F(ControllerFixture, EnergyOrderingSuspendVsNoSuspend) {
  // The headline mechanism: with suspension the idle cluster burns far
  // less energy.
  for (int pass = 0; pass < 2; ++pass) {
    s::EventQueue queue;
    s::Cluster cl(queue);
    n::SdnSwitch swl(queue);
    auto& host = cl.add_host(s::HostSpec{"P1", 8, 16384, 2});
    (void)host;
    auto& vm = cl.add_vm(s::VmSpec{"V1", 2, 6144},
                         t::ActivityTrace(std::vector<double>(100 * 24, 0.0)));
    cl.place(vm.id(), 0);
    c::ControllerOptions opts;
    opts.drowsy.suspend.rule =
        pass == 1 ? c::SuspendRule::IdleHostWithGrace : c::SuspendRule::Never;
    c::Controller controller(cl, swl, opts);
    controller.install();
    controller.run_hours(24);
    if (pass == 0) {
      EXPECT_NEAR(cl.total_kwh(), 0.05 * 24, 0.01);  // 50 W for 24 h
    } else {
      EXPECT_LT(cl.total_kwh(), 0.2);  // mostly 5 W
    }
  }
}

TEST_F(ControllerFixture, ExternalPolicyIsUsed) {
  struct CountingPolicy final : c::ConsolidationPolicy {
    int calls = 0;
    void run_hour(std::int64_t) override { ++calls; }
  };
  add_host();
  auto& vm = add_vm(t::ActivityTrace({0.0}));
  cluster.place(vm.id(), 0);
  CountingPolicy policy;
  c::Controller controller(cluster, sw);
  controller.set_policy(&policy);
  controller.install();
  controller.run_hours(5);
  EXPECT_EQ(policy.calls, 5);
  controller.set_policy(nullptr);  // back to Drowsy-DC's own
  controller.run_hours(1);
  EXPECT_EQ(policy.calls, 5);
}
