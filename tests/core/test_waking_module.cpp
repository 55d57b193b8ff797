#include "core/waking_module.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/requests.hpp"
#include "trace/trace.hpp"

namespace c = drowsy::core;
namespace s = drowsy::sim;
namespace n = drowsy::net;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace {

struct WakingFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};
  n::SdnSwitch sw{q};
  s::RequestFabric fabric{cluster, sw};
  s::Host* host = nullptr;
  s::Vm* vm = nullptr;

  void SetUp() override {
    host = &cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
    vm = &cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({0.5}));
    cluster.place(vm->id(), host->id());
    fabric.wire_ports();
  }

  void suspend_host(c::WakingModule& module) {
    module.on_host_suspending(*host, u::kNever);
    host->begin_suspend();
    q.run_all();
    ASSERT_EQ(host->state(), s::PowerState::S3);
  }

  n::Packet request() const {
    n::Packet p;
    p.kind = n::PacketKind::Request;
    p.dst = vm->ip();
    p.dst_mac = host->mac();
    return p;
  }
};

}  // namespace

TEST_F(WakingFixture, InboundRequestWakesSuspendedHost) {
  c::WakingModule module(cluster, sw, "waking");
  module.activate();
  suspend_host(module);

  sw.inject(request());
  q.run_all();
  EXPECT_EQ(host->state(), s::PowerState::S0);
  EXPECT_EQ(module.stats().packet_wakes, 1u);
  // The request itself completed after the resume.
  EXPECT_EQ(fabric.stats().total, 1u);
  EXPECT_EQ(fabric.stats().woke_host, 1u);
}

TEST_F(WakingFixture, AwakeHostGetsNoWol) {
  c::WakingModule module(cluster, sw, "waking");
  module.activate();
  module.on_host_suspending(*host, u::kNever);  // map is registered...
  // ...but the host never actually suspends.
  sw.inject(request());
  q.run_all();
  EXPECT_EQ(module.stats().packet_wakes, 0u);
  EXPECT_EQ(host->resume_count(), 0);
}

TEST_F(WakingFixture, WolDeduplicatedWhileResuming) {
  c::WakingModule module(cluster, sw, "waking");
  module.activate();
  suspend_host(module);
  // A burst of three frames: only the first sends a WoL.
  sw.inject(request());
  sw.inject(request());
  sw.inject(request());
  q.run_all();
  EXPECT_EQ(module.stats().packet_wakes, 1u);
  EXPECT_EQ(host->resume_count(), 1);
  EXPECT_EQ(fabric.stats().total, 3u) << "all three requests complete after resume";
}

TEST_F(WakingFixture, PendingGuardClearsAfterResume) {
  c::WakingModule module(cluster, sw, "waking");
  module.activate();
  host->add_on_wake([&] { module.on_host_resumed(*host); });
  suspend_host(module);
  sw.inject(request());
  q.run_all();
  ASSERT_EQ(host->state(), s::PowerState::S0);

  // Second suspend/wake cycle must send a fresh WoL.
  module.on_host_suspending(*host, u::kNever);
  host->begin_suspend();
  q.run_all();
  sw.inject(request());
  q.run_all();
  EXPECT_EQ(module.stats().packet_wakes, 2u);
}

TEST_F(WakingFixture, InactiveStandbyAnalyzesNothing) {
  c::WakingModule standby(cluster, sw, "standby");
  suspend_host(standby);
  sw.inject(request());
  q.run_all();
  EXPECT_EQ(standby.stats().packet_wakes, 0u);
  EXPECT_EQ(host->state(), s::PowerState::S3) << "standby must not act";
  EXPECT_EQ(standby.stats().analyzed_packets, 0u);
}

TEST_F(WakingFixture, PromotedStandbyAnalyzesAfterThePrimary) {
  c::WakingModule primary(cluster, sw, "primary");
  c::WakingModule standby(cluster, sw, "standby");
  primary.set_mirror(&standby);
  primary.activate();
  // An analyzer installed between the two records what each module had
  // analyzed when it ran.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
  sw.add_analyzer([&](const n::Packet& p) {
    if (p.kind == n::PacketKind::Request) {
      seen.emplace_back(primary.stats().analyzed_packets, standby.stats().analyzed_packets);
    }
  });
  suspend_host(primary);
  primary.deactivate();
  standby.activate();
  standby.activate();  // a second promotion installs nothing more

  sw.inject(request());
  q.run_all();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], (std::pair<std::uint64_t, std::uint64_t>{1, 0}))
      << "the primary's analyzer runs first, the standby's last";
  EXPECT_EQ(standby.stats().analyzed_packets, 2u) << "the request and its WoL, once each";
  EXPECT_EQ(standby.stats().packet_wakes, 1u);
  EXPECT_EQ(primary.stats().packet_wakes, 0u) << "a dead primary sends nothing";
  EXPECT_EQ(host->state(), s::PowerState::S0);
}

TEST_F(WakingFixture, RequestPastTheVmTableWakesNothing) {
  c::WakingModule module(cluster, sw, "waking");
  module.activate();
  suspend_host(module);
  for (const n::Ipv4 dst : {n::Ipv4::for_vm(1), n::Ipv4::for_vm(1000), n::Ipv4{0}}) {
    n::Packet p = request();
    p.dst = dst;
    p.dst_mac = {};  // no host runs these VMs, so the fabric addresses none
    EXPECT_FALSE(sw.inject(p)) << dst.to_string();
  }
  q.run_all();
  EXPECT_EQ(module.stats().analyzed_packets, 3u);
  EXPECT_EQ(module.stats().packet_wakes, 0u);
  EXPECT_EQ(host->state(), s::PowerState::S3);
}

TEST_F(WakingFixture, ScheduledWakeFiresAheadOfDeadline) {
  c::WakingModule module(cluster, sw, "waking");
  module.activate();

  const u::SimTime wake_date = u::minutes(10);
  u::SimTime resumed_at = -1;
  host->add_on_wake([&] { resumed_at = q.now(); });
  module.on_host_suspending(*host, wake_date);
  host->begin_suspend();
  q.run_until(q.now() + u::seconds(5));  // process the suspend transition only
  ASSERT_EQ(host->state(), s::PowerState::S3);

  // At the wake date the host is already up: the WoL went out at
  // wake_date - lead and the resume (1.5 s naive) completed in time...
  q.run_until(wake_date);
  EXPECT_EQ(host->state(), s::PowerState::S0);
  EXPECT_EQ(module.stats().scheduled_wakes, 1u);
  // ...but not much earlier than needed.
  EXPECT_GE(resumed_at, wake_date - c::kWakeLead);
}

TEST_F(WakingFixture, ScheduledWakeSkippedIfHostAlreadyAwake) {
  c::WakingModule module(cluster, sw, "waking");
  module.activate();
  const u::SimTime wake_date = u::minutes(10);
  module.on_host_suspending(*host, wake_date);
  host->begin_suspend();
  q.run_until(q.now() + u::seconds(5));
  // An inbound request wakes the host early.
  sw.inject(request());
  q.run_until(u::minutes(5));
  ASSERT_EQ(host->state(), s::PowerState::S0);
  q.run_until(u::minutes(11));
  EXPECT_EQ(module.stats().scheduled_wakes, 0u) << "no WoL for an awake host";
}

TEST_F(WakingFixture, MirrorReceivesRegistrations) {
  c::WakingModule primary(cluster, sw, "primary");
  c::WakingModule standby(cluster, sw, "standby");
  primary.set_mirror(&standby);
  primary.activate();

  primary.on_host_suspending(*host, u::kNever);
  EXPECT_EQ(standby.vm_map_size(), primary.vm_map_size());
  EXPECT_GT(standby.vm_map_size(), 0u);
}

TEST_F(WakingFixture, FailoverPromotedStandbyWakesHosts) {
  c::WakingModule primary(cluster, sw, "primary");
  c::WakingModule standby(cluster, sw, "standby");
  primary.set_mirror(&standby);
  // The primary is "dead": never on duty, it only forwards registrations.

  primary.on_host_suspending(*host, u::kNever);  // mirrored into standby
  host->begin_suspend();
  q.run_all();

  // Heartbeat failover promotes the standby.
  standby.activate();
  sw.inject(request());
  q.run_all();
  EXPECT_EQ(host->state(), s::PowerState::S0);
  EXPECT_EQ(standby.stats().packet_wakes, 1u);
}

TEST_F(WakingFixture, ScheduledWakeSurvivesFailover) {
  c::WakingModule primary(cluster, sw, "primary");
  c::WakingModule standby(cluster, sw, "standby");
  primary.set_mirror(&standby);
  primary.activate();

  const u::SimTime wake_date = u::minutes(10);
  primary.on_host_suspending(*host, wake_date);  // standby mirrors the schedule
  host->begin_suspend();
  q.run_until(q.now() + u::seconds(5));

  // The primary dies at t=1min; the standby is promoted.
  q.run_until(u::minutes(1));
  primary.deactivate();
  standby.activate();

  q.run_until(wake_date);
  EXPECT_EQ(host->state(), s::PowerState::S0);
  EXPECT_EQ(standby.stats().scheduled_wakes, 1u);
}
