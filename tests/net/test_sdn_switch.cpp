#include "net/sdn_switch.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace n = drowsy::net;
namespace obs = drowsy::obs;
namespace s = drowsy::sim;
namespace u = drowsy::util;

namespace {

/// Runs every callback inline at a fixed time.
class ImmediateDispatcher final : public n::Dispatcher {
 public:
  void schedule_after(u::SimTime /*delay*/, u::InlineFn fn, obs::EventTag /*tag*/) override {
    fn();
  }
  [[nodiscard]] u::SimTime now() const override { return 0; }
};

/// Keeps every scheduled callback instead of running it, so a test can
/// inspect how it is stored and run it later.
class RecordingDispatcher final : public n::Dispatcher {
 public:
  void schedule_after(u::SimTime /*delay*/, u::InlineFn fn, obs::EventTag /*tag*/) override {
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

TEST_F(SwitchFixture, RequestForwardedByMac) {
  n::Packet p;
  p.dst = vm_ip;
  p.dst_mac = mac_a;
  EXPECT_TRUE(sw.inject(p));
  ASSERT_EQ(received_a.size(), 1u);
  EXPECT_EQ(received_a[0].dst, vm_ip) << "the VM IP rides along for the receiver";
  EXPECT_TRUE(received_b.empty());
  EXPECT_EQ(sw.forwarded_count(), 1u);
}

TEST_F(SwitchFixture, UnaddressedRequestDropped) {
  n::Packet p;
  p.dst = vm_ip;  // an IP alone routes nowhere: the sender sets dst_mac
  EXPECT_FALSE(sw.inject(p));
  EXPECT_EQ(sw.dropped_count(), 1u);
  EXPECT_TRUE(received_a.empty());
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
  EXPECT_EQ(sw.dropped_count(), 1u);
}

TEST_F(SwitchFixture, MalformedAddressesAreCountedDrops) {
  // Every destination MAC below decodes to no attached port, for either
  // kind of frame: each is dropped without a callback, and without
  // reading past a table.
  n::MacAddress foreign = mac_a;
  foreign.octets[0] = 0x00;  // not the 02:00 prefix
  std::vector<n::Packet> frames;
  for (const n::PacketKind kind : {n::PacketKind::Request, n::PacketKind::WakeOnLan}) {
    for (const n::MacAddress mac : {foreign, n::MacAddress{}, n::MacAddress::for_host(2),
                                    n::MacAddress::for_host(0xFFFFFFFF)}) {
      n::Packet p;
      p.kind = kind;
      p.dst = vm_ip;
      p.dst_mac = mac;
      frames.push_back(p);
    }
  }
  for (const n::Packet& p : frames) EXPECT_FALSE(sw.inject(p));
  EXPECT_EQ(sw.dropped_count(), frames.size());
  EXPECT_EQ(sw.forwarded_count(), 0u);
  EXPECT_TRUE(received_a.empty());
  EXPECT_TRUE(received_b.empty());
}

TEST(SwitchFrames, PortsNeedNotBeContiguous) {
  // Host 3's port alone: hosts 0-2 and 4 have none.
  ImmediateDispatcher dispatcher;
  n::SdnSwitch sw{dispatcher};
  int delivered = 0;
  sw.attach_port(n::MacAddress::for_host(3), [&delivered](const n::Packet&) { ++delivered; });
  EXPECT_FALSE(sw.send_wol(n::MacAddress::for_host(1)));
  EXPECT_FALSE(sw.send_wol(n::MacAddress::for_host(4)));
  EXPECT_TRUE(sw.send_wol(n::MacAddress::for_host(3)));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(sw.dropped_count(), 2u);
}

TEST_F(SwitchFixture, AnalyzerSeesEveryFrame) {
  int seen = 0;
  sw.add_analyzer([&seen](const n::Packet&) { ++seen; });
  n::Packet p;
  p.dst = vm_ip;
  p.dst_mac = mac_a;
  sw.inject(p);
  sw.inject(p);
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(received_a.size(), 2u);
}

TEST_F(SwitchFixture, AnalyzersRunInInstallationOrder) {
  std::vector<int> order;
  sw.add_analyzer([&order](const n::Packet&) { order.push_back(1); });
  sw.add_analyzer([&order](const n::Packet&) { order.push_back(2); });
  n::Packet p;
  p.dst = vm_ip;
  p.dst_mac = mac_a;
  sw.inject(p);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SwitchFrames, SendWolCountsItsFrames) {
  ImmediateDispatcher dispatcher;
  n::SdnSwitch sw{dispatcher};
  const n::MacAddress mac = n::MacAddress::for_host(0);
  std::vector<n::Packet> received;
  sw.attach_port(mac, [&received](const n::Packet& p) { received.push_back(p); });
  EXPECT_TRUE(sw.send_wol(mac));
  EXPECT_FALSE(sw.send_wol(n::MacAddress::for_host(1)));  // no such port
  EXPECT_EQ(sw.wol_frames(), 2u);
  EXPECT_EQ(sw.dropped_count(), 1u);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].kind, n::PacketKind::WakeOnLan);
  EXPECT_EQ(received[0].dst_mac, mac);
}

namespace {

/// A switch port over a bare event queue that logs delivery instants.
struct PipeFixture : ::testing::Test {
  s::EventQueue q;
  n::MacAddress mac = n::MacAddress::for_host(0);
  std::vector<u::SimTime> delivered;

  void wire(n::SdnSwitch& sw) {
    sw.attach_port(mac, [this](const n::Packet&) { delivered.push_back(q.now()); });
  }
};

}  // namespace

TEST_F(PipeFixture, ZeroSerializationKeepsTheBareQueueOrder) {
  // Frames through a pipe with serialization 0 take the same (time, seq)
  // place among other events that scheduling them on the bare queue
  // would give.
  n::SdnSwitch five(q, /*port_latency=*/5);
  n::SdnSwitch three(q, /*port_latency=*/3);
  std::vector<int> order;
  five.attach_port(mac, [&order](const n::Packet&) { order.push_back(1); });
  three.attach_port(mac, [&order](const n::Packet&) { order.push_back(3); });
  five.send_wol(mac);
  q.schedule_after(5, [&order] { order.push_back(2); });  // same instant, later seq
  three.send_wol(mac);
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(five.queue_delay_p99_ms(), 0.0);
  EXPECT_EQ(three.queue_delay_p99_ms(), 0.0);
}

TEST_F(PipeFixture, SerializationQueuesConcurrentFrames) {
  // Three frames injected in the same instant with port latency 2 and
  // serialization 5: the pipe frees at 5, 10, 15, so deliveries land at
  // 7, 12, 17 and the queue delays are 5 and 10 (the first frame never
  // waits and is not sampled), whose p99 interpolates to 9.95.
  n::SdnSwitch sw(q, /*port_latency=*/2, /*serialization=*/5);
  wire(sw);
  q.schedule_at(0, [&] {
    for (int i = 0; i < 3; ++i) sw.send_wol(mac);
  });
  q.run_all();
  EXPECT_EQ(delivered, (std::vector<u::SimTime>{7, 12, 17}));
  EXPECT_DOUBLE_EQ(sw.queue_delay_p99_ms(), 9.95);
}

TEST_F(PipeFixture, IdlePipeAddsNoQueueDelay) {
  // Frames spaced wider than the serialization time never wait: each
  // arrives at an idle pipe and only pays serialization + port latency.
  n::SdnSwitch sw(q, /*port_latency=*/2, /*serialization=*/5);
  wire(sw);
  for (u::SimTime t : {0, 100, 200}) {
    q.schedule_at(t, [&] { sw.send_wol(mac); });
  }
  q.run_all();
  EXPECT_EQ(delivered, (std::vector<u::SimTime>{7, 107, 207}));
  EXPECT_EQ(sw.queue_delay_p99_ms(), 0.0);
}

TEST(SwitchFrames, DeliveriesFitInline) {
  // Every forwarded frame becomes one queued delivery; none may need a
  // heap allocation.
  RecordingDispatcher dispatcher;
  n::SdnSwitch sw{dispatcher};
  const n::MacAddress mac = n::MacAddress::for_host(0);
  std::vector<n::Packet> received;
  sw.attach_port(mac, [&received](const n::Packet& p) { received.push_back(p); });
  n::Packet request;
  request.dst = n::Ipv4::for_vm(0);
  request.dst_mac = mac;
  request.id = 7;
  ASSERT_TRUE(sw.inject(request));
  n::Packet wol;
  wol.kind = n::PacketKind::WakeOnLan;
  wol.dst_mac = mac;
  ASSERT_TRUE(sw.inject(wol));
  ASSERT_EQ(dispatcher.queued.size(), 2u);
  for (const u::InlineFn& fn : dispatcher.queued) EXPECT_TRUE(fn.is_inline());

  for (u::InlineFn& fn : dispatcher.queued) fn();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].id, 7u);
  EXPECT_EQ(received[1].kind, n::PacketKind::WakeOnLan);
}
