#include "sim/host.hpp"

#include <gtest/gtest.h>

#include "trace/trace.hpp"

namespace s = drowsy::sim;
namespace u = drowsy::util;

namespace {

struct HostFixture : ::testing::Test {
  s::EventQueue q;
  s::PowerModel model;
  s::Host host{0, s::HostSpec{"P1", 8, 16384, 2}, s::PowerModel{}, q};

  s::Vm make_vm(s::VmId id, int mem_mb = 6144) {
    return s::Vm(id, s::VmSpec{"v" + std::to_string(id), 2, mem_mb},
                 drowsy::trace::ActivityTrace({0.5}));
  }
};

}  // namespace

TEST_F(HostFixture, StartsAwake) {
  EXPECT_EQ(host.state(), s::PowerState::S0);
  EXPECT_EQ(host.suspend_count(), 0);
  EXPECT_EQ(host.mac(), drowsy::net::MacAddress::for_host(0));
}

TEST_F(HostFixture, SuspendTakesSuspendLatency) {
  bool suspended = false;
  EXPECT_TRUE(host.begin_suspend([&] { suspended = true; }));
  EXPECT_EQ(host.state(), s::PowerState::Suspending);
  q.run_until(model.suspend_latency - 1);
  EXPECT_FALSE(suspended);
  q.run_until(model.suspend_latency);
  EXPECT_TRUE(suspended);
  EXPECT_EQ(host.state(), s::PowerState::S3);
  EXPECT_EQ(host.suspend_count(), 1);
}

TEST_F(HostFixture, CannotSuspendTwice) {
  EXPECT_TRUE(host.begin_suspend());
  EXPECT_FALSE(host.begin_suspend());
  q.run_all();
  EXPECT_FALSE(host.begin_suspend()) << "already in S3";
}

TEST_F(HostFixture, ResumeTakesNaiveLatency) {
  host.begin_suspend();
  q.run_all();
  ASSERT_EQ(host.state(), s::PowerState::S3);
  bool resumed = false;
  EXPECT_TRUE(host.begin_resume([&] { resumed = true; }));
  EXPECT_EQ(host.state(), s::PowerState::Resuming);
  q.run_all();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(host.state(), s::PowerState::S0);
  EXPECT_EQ(host.resume_count(), 1);
  EXPECT_EQ(host.last_resume_at(),
            model.suspend_latency + model.resume_latency);
}

TEST_F(HostFixture, QuickResumeIsFaster) {
  host.set_quick_resume(true);
  host.begin_suspend();
  q.run_all();
  host.begin_resume();
  const u::SimTime start = q.now();
  q.run_all();
  EXPECT_EQ(q.now() - start, model.quick_resume_latency);
}

TEST_F(HostFixture, ResumeWhileSuspendingQueues) {
  // The §IV race: a wake arrives while the host is still suspending.  It
  // must finish the suspend, then immediately resume.
  host.begin_suspend();
  EXPECT_EQ(host.state(), s::PowerState::Suspending);
  bool resumed = false;
  EXPECT_TRUE(host.begin_resume([&] { resumed = true; }));
  q.run_all();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(host.state(), s::PowerState::S0);
  EXPECT_EQ(host.suspend_count(), 1);
  EXPECT_EQ(host.resume_count(), 1);
}

TEST_F(HostFixture, ResumeWhenAwakeFails) {
  EXPECT_FALSE(host.begin_resume());
}

TEST_F(HostFixture, DoubleResumeSharesOneTransition) {
  host.begin_suspend();
  q.run_all();
  int callbacks = 0;
  host.begin_resume([&] { ++callbacks; });
  host.begin_resume([&] { ++callbacks; });
  q.run_all();
  EXPECT_EQ(callbacks, 2);
  EXPECT_EQ(host.resume_count(), 1);
}

TEST_F(HostFixture, WhenAwakeImmediateWhenS0) {
  int ran = 0;
  host.when_awake([&] { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST_F(HostFixture, WhenAwakeWaitsForResume) {
  host.begin_suspend();
  q.run_all();
  int ran = 0;
  host.when_awake([&] { ++ran; });
  EXPECT_EQ(ran, 0) << "must not wake the host by itself";
  EXPECT_EQ(host.state(), s::PowerState::S3);
  host.begin_resume();
  q.run_all();
  EXPECT_EQ(ran, 1);
}

TEST_F(HostFixture, OnWakeHookFires) {
  int wakes = 0;
  host.add_on_wake([&] { ++wakes; });
  host.begin_suspend();
  q.run_all();
  host.begin_resume();
  q.run_all();
  EXPECT_EQ(wakes, 1);
}

// PR 7 regression: the old set_on_wake silently clobbered earlier hooks —
// installing the netsim fabric's observer would have dropped the suspend
// checker's grace-time hook.  Hooks must compose and run in install order.
TEST_F(HostFixture, OnWakeHooksChainInInstallOrder) {
  std::vector<int> order;
  host.add_on_wake([&] { order.push_back(1); });
  host.add_on_wake([&] { order.push_back(2); });
  host.add_on_wake([&] { order.push_back(3); });
  EXPECT_EQ(host.on_wake_hook_count(), 3u);
  host.begin_suspend();
  q.run_all();
  host.begin_resume();
  q.run_all();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // Hooks persist across wake cycles.
  host.begin_suspend();
  q.run_all();
  host.begin_resume();
  q.run_all();
  EXPECT_EQ(order.size(), 6u);
}

TEST_F(HostFixture, EnergyAccountingIdleHour) {
  q.run_until(u::hours(1.0));
  host.account_now();
  EXPECT_NEAR(host.energy().watt_hours(), model.idle_watts, 1e-6);
}

TEST_F(HostFixture, EnergyAccountingSuspendedIsCheap) {
  host.begin_suspend();
  q.run_all();  // now in S3 after 5 s
  q.run_until(u::hours(1.0));
  host.account_now();
  // ~5 s of transition at 80 W + ~3595 s at 5 W ≈ 5.1 Wh, far below the
  // 50 Wh an idle awake hour costs.
  EXPECT_LT(host.energy().watt_hours(), 6.0);
  EXPECT_GT(host.energy().watt_hours(), 4.0);
}

TEST_F(HostFixture, UtilizationScalesPower) {
  host.set_utilization(1.0);
  q.run_until(u::hours(1.0));
  host.account_now();
  EXPECT_NEAR(host.energy().watt_hours(), model.peak_watts, 1e-6);
}

TEST_F(HostFixture, SuspendedFraction) {
  host.begin_suspend();
  q.run_all();
  q.run_until(u::hours(10.0));
  host.account_now();
  const double f = host.suspended_fraction(0);
  EXPECT_GT(f, 0.99);  // 5 s of transition out of 10 h
  EXPECT_LE(f, 1.0);
}

TEST_F(HostFixture, TimeInStateAccumulates) {
  q.run_until(u::minutes(10));
  host.begin_suspend();
  q.run_all();
  q.run_until(u::minutes(30));
  host.account_now();
  EXPECT_EQ(host.time_in(s::PowerState::S0), u::minutes(10));
  EXPECT_EQ(host.time_in(s::PowerState::Suspending), model.suspend_latency);
  EXPECT_EQ(host.time_in(s::PowerState::S3),
            u::minutes(20) - model.suspend_latency);
}

TEST_F(HostFixture, VmAttachDetach) {
  auto vm1 = make_vm(0);
  auto vm2 = make_vm(1);
  EXPECT_TRUE(host.can_host(vm1.spec()));
  host.attach_vm(vm1);
  host.attach_vm(vm2);
  EXPECT_EQ(host.vms().size(), 2u);
  EXPECT_EQ(host.used_vcpus(), 4);
  EXPECT_EQ(host.used_memory_mb(), 12288);
  // max_vms = 2: a third VM does not fit.
  auto vm3 = make_vm(2);
  EXPECT_FALSE(host.can_host(vm3.spec()));
  host.detach_vm(0);
  EXPECT_TRUE(host.can_host(vm3.spec()));
  EXPECT_EQ(host.vms().size(), 1u);
}

TEST_F(HostFixture, MemoryCapacityEnforced) {
  auto big = make_vm(0, /*mem_mb=*/12000);
  host.attach_vm(big);
  auto second = make_vm(1, /*mem_mb=*/6144);
  EXPECT_FALSE(host.can_host(second.spec()));  // 12000 + 6144 > 16384
}

TEST_F(HostFixture, ResumeRemainingWhileAwakeIsZero) {
  EXPECT_EQ(host.resume_remaining(), 0);
}

TEST_F(HostFixture, ResumeRemainingWhileResuming) {
  host.begin_suspend();
  q.run_all();
  host.begin_resume();
  EXPECT_EQ(host.resume_remaining(), model.resume_latency);
}

TEST_F(HostFixture, GuestTimersFireOnResume) {
  auto vm = make_vm(0);
  host.attach_vm(vm);
  int fired = 0;
  vm.guest().add_timer_service(
      "job", q.now(), [](u::SimTime now) { return now + u::minutes(1); },
      [&](u::SimTime) { ++fired; });
  host.begin_suspend();
  q.run_all();
  // The timer expired while suspended; it must fire when the host wakes.
  q.run_until(u::minutes(5));
  EXPECT_EQ(fired, 0);
  host.begin_resume();
  q.run_all();
  EXPECT_EQ(fired, 1);
}
