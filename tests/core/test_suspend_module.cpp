#include "core/suspend_module.hpp"

#include <gtest/gtest.h>

#include "trace/trace.hpp"

namespace c = drowsy::core;
namespace s = drowsy::sim;
namespace k = drowsy::kern;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace {

struct SuspendFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};
  c::ModelBuilder builder;
  s::Host* host = nullptr;
  s::Vm* vm = nullptr;

  void SetUp() override {
    host = &cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
    vm = &cluster.add_vm(s::VmSpec{"V1", 2, 6144},
                         t::ActivityTrace(std::vector<double>(1000, 0.0)));
    cluster.place(vm->id(), host->id());
  }

  c::SuspendModule make_module(c::SuspendConfig cfg = {}) {
    return c::SuspendModule(*host, cluster, builder, cfg);
  }
};

}  // namespace

TEST_F(SuspendFixture, RunningServiceBlocksIdle) {
  auto module = make_module();
  vm->set_service_active(true);
  module.check();
  EXPECT_EQ(module.stats().blocked_by_running, 1u);
  vm->set_service_active(false);
  module.check();
  EXPECT_EQ(module.stats().suspends, 1u);
}

TEST_F(SuspendFixture, BlacklistedProcessesIgnored) {
  auto module = make_module();
  // A non-blacklisted running process keeps the host up.
  const k::Pid extra = vm->guest().processes().spawn("cron-job", k::ProcState::Running);
  module.check();
  EXPECT_EQ(module.stats().blocked_by_running, 1u);
  // The guest boots with running kworker/watchdog/monitoring processes —
  // all blacklisted, so once the extra one sleeps the host suspends.
  vm->guest().processes().set_state(extra, k::ProcState::Sleeping);
  module.check();
  EXPECT_EQ(module.stats().suspends, 1u);
}

TEST_F(SuspendFixture, BlockedIoBlocksIdle) {
  auto module = make_module();
  vm->guest().processes().set_state(vm->service_pid(), k::ProcState::BlockedIo);
  module.check();
  EXPECT_EQ(module.stats().blocked_by_io, 1u);
  EXPECT_EQ(module.stats().suspends, 0u);
}

TEST_F(SuspendFixture, OpenSessionBlocksIdle) {
  auto module = make_module();
  vm->guest().open_session(vm->service_pid());
  module.check();
  EXPECT_EQ(module.stats().blocked_by_sessions, 1u)
      << "an open SSH/TCP session must keep the host up";
  vm->guest().close_session(vm->service_pid());
  module.check();
  EXPECT_EQ(module.stats().suspends, 1u);
}

TEST_F(SuspendFixture, CheckSuspendsIdleHost) {
  auto module = make_module();
  module.check();
  EXPECT_EQ(module.stats().suspends, 1u);
  EXPECT_EQ(host->state(), s::PowerState::Suspending);
  q.run_all();
  EXPECT_EQ(host->state(), s::PowerState::S3);
}

TEST_F(SuspendFixture, CheckSkipsActiveHost) {
  auto module = make_module();
  vm->set_service_active(true);
  module.check();
  EXPECT_EQ(module.stats().suspends, 0u);
  EXPECT_EQ(module.stats().blocked_by_running, 1u);
  EXPECT_EQ(host->state(), s::PowerState::S0);
}

TEST_F(SuspendFixture, DisabledModuleNeverSuspends) {
  c::SuspendConfig cfg;
  cfg.rule = c::SuspendRule::Never;
  auto module = make_module(cfg);
  module.start();  // no-op under SuspendRule::Never
  module.check();
  EXPECT_EQ(host->state(), s::PowerState::S0);
  EXPECT_EQ(module.stats().suspends, 0u);
}

TEST_F(SuspendFixture, OnlyEmptyHostsModeSkipsOccupiedHost) {
  // Vanilla Neat only sleeps hosts with no VMs.
  c::SuspendConfig cfg;
  cfg.rule = c::SuspendRule::EmptyHostsOnly;
  auto module = make_module(cfg);
  module.check();
  EXPECT_EQ(host->state(), s::PowerState::S0) << "occupied host must stay awake";
  EXPECT_EQ(module.stats().suspends, 0u);
}

TEST_F(SuspendFixture, WakeDateFromGuestTimer) {
  auto module = make_module();
  vm->guest().add_timer_service("backup", q.now(),
                                [](u::SimTime) { return u::hours(5.0); });
  EXPECT_EQ(module.compute_wake_date(), u::hours(5.0));
}

TEST_F(SuspendFixture, WakeDateIgnoresBlacklistedTimers) {
  auto module = make_module();
  vm->guest().add_timer_service("monitoring-agent", q.now(),
                                [](u::SimTime) { return u::minutes(1); });
  EXPECT_EQ(module.compute_wake_date(), u::kNever);
}

TEST_F(SuspendFixture, RunningKernelThreadLeavesHostIdle) {
  auto module = make_module();
  vm->guest().processes().spawn("kworker/7:2", k::ProcState::Running, /*kernel=*/true);
  module.check();
  EXPECT_EQ(module.stats().suspends, 1u);
}

TEST_F(SuspendFixture, WakeDateIsEarliestRelevantTimerAcrossVms) {
  s::Vm& vm1 = cluster.add_vm(s::VmSpec{"V2", 2, 6144},
                              t::ActivityTrace(std::vector<double>(1000, 0.0)));
  cluster.place(vm1.id(), host->id());
  auto module = make_module();
  // A blacklisted monitor firing every 15 s must not pull the date in.
  vm->guest().add_timer_service("monitoring-agent", q.now(),
                                [](u::SimTime now) { return now + u::seconds(15); });
  vm->guest().add_timer_service("backup", q.now(),
                                [](u::SimTime) { return u::hours(5.0); });
  vm1.guest().add_timer_service("report-job", q.now(),
                                [](u::SimTime) { return u::hours(3.0); });
  EXPECT_EQ(module.compute_wake_date(), u::hours(3.0));
}

TEST_F(SuspendFixture, ImminentTimerBlocksSuspend) {
  auto module = make_module();
  vm->guest().add_timer_service("job", q.now(),
                                [](u::SimTime) { return u::seconds(10); });
  module.check();
  EXPECT_EQ(module.stats().suspends, 0u);
  EXPECT_EQ(module.stats().blocked_by_imminent_timer, 1u);
}

TEST_F(SuspendFixture, GraceTimeBlocksResuspend) {
  c::SuspendConfig cfg;
  auto module = make_module(cfg);
  module.check();
  q.run_all();
  ASSERT_EQ(host->state(), s::PowerState::S3);

  host->begin_resume();
  q.run_all();
  module.on_host_wake();
  ASSERT_EQ(host->state(), s::PowerState::S0);

  module.check();  // still within grace
  EXPECT_EQ(module.stats().blocked_by_grace, 1u);
  EXPECT_EQ(host->state(), s::PowerState::S0);

  // After the grace window passes, the idle host suspends again.
  q.run_until(module.grace_until() + 1);
  module.check();
  EXPECT_EQ(module.stats().suspends, 2u);
}

TEST_F(SuspendFixture, GraceDisabledAllowsImmediateResuspend) {
  c::SuspendConfig cfg;
  cfg.rule = c::SuspendRule::AnyIdleHost;
  auto module = make_module(cfg);
  module.check();
  q.run_all();
  host->begin_resume();
  q.run_all();
  module.on_host_wake();
  module.check();
  EXPECT_EQ(module.stats().suspends, 2u) << "no grace: resuspends immediately";
}

TEST_F(SuspendFixture, GraceDurationWithinPaperBand) {
  auto module = make_module();
  const auto c0 = u::calendar_of(0);
  const u::SimTime g = module.grace_duration(c0);
  EXPECT_GE(g, u::seconds(5));
  EXPECT_LE(g, u::minutes(2));
}

TEST_F(SuspendFixture, GraceGrowsAsIpDrops) {
  auto module = make_module();
  const auto c0 = u::calendar_of(0);
  // Undetermined host (IP 0.5 normalized) → mid-band grace.
  const u::SimTime undetermined = module.grace_duration(c0);
  // Train the VM's model active: IP drops, grace grows.
  for (int h = 0; h < 200; ++h) {
    builder.model(vm->id()).observe_hour(u::calendar_of(h * u::kMsPerHour), 0.9);
  }
  const u::SimTime active_grace = module.grace_duration(u::calendar_of(200 * u::kMsPerHour));
  EXPECT_GT(active_grace, undetermined);
}

TEST_F(SuspendFixture, GraceTimeScalesByTheModelBuildersSigma) {
  // "Determined" is 7σ of the ModelBuilder's config: with σ' = σ/2, a
  // host whose raw IP reaches 7σ' is determined idle and gets grace_min,
  // though its IP is still under 7σ.
  c::IdlenessModelConfig cfg;
  cfg.sigma /= 2.0;
  c::ModelBuilder halved(cfg);
  const c::SuspendModule module(*host, cluster, halved, c::SuspendConfig{});
  c::IdlenessModel& model = halved.model(vm->id());
  model.observe_hour(u::calendar_of(u::kMsPerHour), 1.0);  // idle hours now count
  const auto c0 = u::calendar_of(0);
  const double determined = c::kDeterminedIpSigmas * cfg.sigma;
  for (int i = 0; i < 100 && halved.host_ip(*host, c0).raw < determined; ++i) {
    model.observe_hour(c0, 0.0);
  }
  const double raw = halved.host_ip(*host, c0).raw;
  ASSERT_GE(raw, determined);
  ASSERT_LT(raw, c::kDeterminedIpSigmas * c::IdlenessModelConfig{}.sigma);
  EXPECT_EQ(module.grace_duration(c0), c::SuspendConfig{}.grace_min);
}

TEST_F(SuspendFixture, PeriodicChecksThroughEventQueue) {
  c::SuspendConfig cfg;
  cfg.check_interval = u::seconds(30);
  auto module = make_module(cfg);
  module.start();
  q.run_until(u::minutes(2));
  EXPECT_GE(module.stats().checks, 1u);
  EXPECT_EQ(host->state(), s::PowerState::S3) << "idle host suspended by periodic check";
}
