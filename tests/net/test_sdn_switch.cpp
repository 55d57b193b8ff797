#include "net/sdn_switch.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace n = drowsy::net;
namespace u = drowsy::util;

namespace {

/// Runs every callback inline at a fixed time.
class ImmediateDispatcher final : public n::Dispatcher {
 public:
  using Dispatcher::schedule_after;
  void schedule_after(u::SimTime /*delay*/, u::InlineFn fn) override { fn(); }
  [[nodiscard]] u::SimTime now() const override { return 0; }
};

/// Keeps every scheduled callback instead of running it, so a test can
/// inspect how it is stored and run it later.
class RecordingDispatcher final : public n::Dispatcher {
 public:
  using Dispatcher::schedule_after;
  void schedule_after(u::SimTime /*delay*/, u::InlineFn fn) override {
    queued.push_back(std::move(fn));
  }
  [[nodiscard]] u::SimTime now() const override { return 0; }

  std::vector<u::InlineFn> queued;
};

struct SwitchFixture : ::testing::Test {
  ImmediateDispatcher dispatcher;
  n::SdnSwitch sw{dispatcher};
  std::vector<n::Packet> received_a, received_b;
  n::MacAddress mac_a = n::MacAddress::for_host(0);
  n::MacAddress mac_b = n::MacAddress::for_host(1);
  n::Ipv4 vm_ip = n::Ipv4::for_vm(0);

  void SetUp() override {
    sw.attach_port(mac_a, [this](const n::Packet& p) { received_a.push_back(p); });
    sw.attach_port(mac_b, [this](const n::Packet& p) { received_b.push_back(p); });
  }
};

}  // namespace

TEST_F(SwitchFixture, ForwardsByIpBinding) {
  sw.bind_ip(vm_ip, mac_a);
  n::Packet p;
  p.dst = vm_ip;
  EXPECT_TRUE(sw.inject(p));
  EXPECT_EQ(received_a.size(), 1u);
  EXPECT_TRUE(received_b.empty());
  EXPECT_EQ(sw.forwarded_count(), 1u);
}

TEST_F(SwitchFixture, RebindMovesTraffic) {
  sw.bind_ip(vm_ip, mac_a);
  sw.bind_ip(vm_ip, mac_b);  // VM migrated
  n::Packet p;
  p.dst = vm_ip;
  EXPECT_TRUE(sw.inject(p));
  EXPECT_TRUE(received_a.empty());
  EXPECT_EQ(received_b.size(), 1u);
}

TEST_F(SwitchFixture, UnknownIpDropped) {
  n::Packet p;
  p.dst = n::Ipv4::for_vm(99);
  EXPECT_FALSE(sw.inject(p));
  EXPECT_EQ(sw.dropped_count(), 1u);
}

TEST_F(SwitchFixture, WolDeliveredByMac) {
  n::Packet p;
  p.kind = n::PacketKind::WakeOnLan;
  p.dst_mac = mac_b;
  EXPECT_TRUE(sw.inject(p));
  ASSERT_EQ(received_b.size(), 1u);
  EXPECT_EQ(received_b[0].kind, n::PacketKind::WakeOnLan);
}

TEST_F(SwitchFixture, WolToUnknownMacDropped) {
  n::Packet p;
  p.kind = n::PacketKind::WakeOnLan;
  p.dst_mac = n::MacAddress::for_host(42);
  EXPECT_FALSE(sw.inject(p));
}

TEST_F(SwitchFixture, AnalyzerSeesEveryFrame) {
  sw.bind_ip(vm_ip, mac_a);
  int seen = 0;
  sw.add_analyzer([&seen](const n::Packet&) { ++seen; });
  n::Packet p;
  p.dst = vm_ip;
  sw.inject(p);
  sw.inject(p);
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(received_a.size(), 2u);
}

TEST_F(SwitchFixture, AnalyzersRunInInstallationOrder) {
  sw.bind_ip(vm_ip, mac_a);
  std::vector<int> order;
  sw.add_analyzer([&order](const n::Packet&) { order.push_back(1); });
  sw.add_analyzer([&order](const n::Packet&) { order.push_back(2); });
  n::Packet p;
  p.dst = vm_ip;
  sw.inject(p);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(SwitchFixture, DetachPortDropsFrames) {
  sw.bind_ip(vm_ip, mac_a);
  sw.detach_port(mac_a);
  n::Packet p;
  p.dst = vm_ip;
  EXPECT_FALSE(sw.inject(p));
}

TEST_F(SwitchFixture, LookupIp) {
  EXPECT_EQ(sw.lookup_ip(vm_ip), nullptr);
  sw.bind_ip(vm_ip, mac_a);
  ASSERT_NE(sw.lookup_ip(vm_ip), nullptr);
  EXPECT_EQ(*sw.lookup_ip(vm_ip), mac_a);
  sw.unbind_ip(vm_ip);
  EXPECT_EQ(sw.lookup_ip(vm_ip), nullptr);
}

TEST(SwitchFrames, DeliveriesFitInlineAndSurviveADetach) {
  // Every forwarded frame becomes one queued delivery; none may need a
  // heap allocation, and one queued before its port detaches still runs.
  RecordingDispatcher dispatcher;
  n::SdnSwitch sw{dispatcher};
  const n::MacAddress mac = n::MacAddress::for_host(0);
  std::vector<n::Packet> received;
  sw.attach_port(mac, [&received](const n::Packet& p) { received.push_back(p); });
  sw.bind_ip(n::Ipv4::for_vm(0), mac);
  n::Packet request;
  request.dst = n::Ipv4::for_vm(0);
  request.id = 7;
  ASSERT_TRUE(sw.inject(request));
  n::Packet wol;
  wol.kind = n::PacketKind::WakeOnLan;
  wol.dst_mac = mac;
  ASSERT_TRUE(sw.inject(wol));
  ASSERT_EQ(dispatcher.queued.size(), 2u);
  for (const u::InlineFn& fn : dispatcher.queued) EXPECT_TRUE(fn.is_inline());

  sw.detach_port(mac);
  for (u::InlineFn& fn : dispatcher.queued) fn();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].id, 7u);
  EXPECT_EQ(received[1].kind, n::PacketKind::WakeOnLan);
}
