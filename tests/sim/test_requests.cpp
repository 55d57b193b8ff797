#include "sim/requests.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace s = drowsy::sim;
namespace n = drowsy::net;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace {

struct FabricFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};
  n::SdnSwitch sw{q};
  s::RequestConfig cfg;

  FabricFixture() {
    cfg.base_rate_per_hour = 500.0;  // plenty of arrivals per active hour
    cfg.sla_ms = 200.0;
  }
};

}  // namespace

TEST_F(FabricFixture, ActiveVmReceivesRequests) {
  auto& host = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  auto& vm = cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({0.5}));
  cluster.place(vm.id(), host.id());
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  fabric.schedule_hour(0);
  q.run_until(u::kMsPerHour);
  EXPECT_GT(fabric.stats().total, 50u);
  EXPECT_EQ(fabric.stats().woke_host, 0u);
  EXPECT_EQ(fabric.stats().lost, 0u);
  // Awake host, no wake penalty: every request is fast.
  EXPECT_GT(fabric.stats().sla_attainment(), 0.999);
}

TEST_F(FabricFixture, ArrivalsRunInTimeThenDrawOrder) {
  // An hour's arrivals dispatch in (instant, draw index) order; the draw
  // index is the packet id's offset.  Six busy VMs put thousands of pairs
  // of arrivals in one millisecond, so the tie-break is exercised.
  auto& host = cluster.add_host(s::HostSpec{"P1", 16, 65536, 6});
  for (int i = 0; i < 6; ++i) {
    auto& vm = cluster.add_vm(s::VmSpec{"V", 2, 6144}, t::ActivityTrace({1.0}));
    cluster.place(vm.id(), host.id());
  }
  cfg.base_rate_per_hour = 36'000.0;
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  std::vector<std::pair<u::SimTime, std::uint64_t>> sent;
  sw.add_analyzer([&](const n::Packet& p) { sent.emplace_back(p.sent_at, p.id); });
  fabric.schedule_hour(0);
  q.run_until(u::kMsPerHour);
  ASSERT_EQ(sent.size(), fabric.stats().total);
  ASSERT_GT(sent.size(), 200'000u);
  std::size_t ties = 0;
  for (std::size_t i = 1; i < sent.size(); ++i) {
    ASSERT_LT(sent[i - 1], sent[i]) << "at arrival " << i;
    if (sent[i - 1].first == sent[i].first) ++ties;
  }
  EXPECT_GT(ties, 1'000u);
  EXPECT_LT(sent.back().first, u::kMsPerHour);
}

TEST_F(FabricFixture, IdleVmReceivesNothing) {
  auto& host = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  auto& vm = cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({0.0}));
  cluster.place(vm.id(), host.id());
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  fabric.schedule_hour(0);
  q.run_until(u::kMsPerHour);
  EXPECT_EQ(fabric.stats().total, 0u);
  EXPECT_EQ(fabric.stats().sla_attainment(), 1.0);
}

TEST_F(FabricFixture, UnplacedVmIgnored) {
  cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({1.0}));
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  fabric.schedule_hour(0);
  q.run_until(u::kMsPerHour);
  EXPECT_EQ(fabric.stats().total, 0u);
}

TEST_F(FabricFixture, RequestToSuspendedHostWaitsForWake) {
  auto& host = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  auto& vm = cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({0.3}));
  cluster.place(vm.id(), host.id());
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();

  host.begin_suspend();
  q.run_all();
  ASSERT_EQ(host.state(), s::PowerState::S3);

  // One request arrives at t+60 s; a WoL follows at t+61 s (as the waking
  // module would send).  The request completes only after the resume.
  n::Packet req;
  req.kind = n::PacketKind::Request;
  req.dst = vm.ip();
  req.dst_mac = host.mac();
  q.schedule_at(u::minutes(1), [&] { sw.inject(req); });
  n::Packet wol;
  wol.kind = n::PacketKind::WakeOnLan;
  wol.dst_mac = host.mac();
  q.schedule_at(u::minutes(1) + u::seconds(1), [&] { sw.inject(wol); });

  q.run_until(u::minutes(2));
  EXPECT_EQ(host.state(), s::PowerState::S0);
  ASSERT_EQ(fabric.stats().total, 1u);
  EXPECT_EQ(fabric.stats().woke_host, 1u);
  // Latency ≥ 1 s of WoL delay + 1.5 s resume.
  EXPECT_GE(fabric.stats().wake_latencies_ms.quantile(1.0), 2500.0);
}

TEST_F(FabricFixture, WolPacketResumesHost) {
  auto& host = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  host.begin_suspend();
  q.run_all();
  n::Packet wol;
  wol.kind = n::PacketKind::WakeOnLan;
  wol.dst_mac = host.mac();
  sw.inject(wol);
  q.run_all();
  EXPECT_EQ(host.state(), s::PowerState::S0);
  EXPECT_EQ(host.resume_count(), 1);
}

TEST_F(FabricFixture, RequestsFollowAMigrationWithoutAnyHook) {
  // No controller wires anything to the migration: each frame is
  // addressed to its VM's host when it is sent.
  auto& h1 = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  auto& h2 = cluster.add_host(s::HostSpec{"P2", 8, 16384, 2});
  auto& vm = cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({0.5}));
  cluster.place(vm.id(), h1.id());
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  ASSERT_TRUE(cluster.migrate(vm.id(), h2.id()));
  std::uint64_t to_h2 = 0;
  sw.add_analyzer([&](const n::Packet& p) { to_h2 += p.dst_mac == h2.mac() ? 1 : 0; });
  fabric.schedule_hour(0);
  q.run_until(u::kMsPerHour);
  EXPECT_GT(fabric.stats().total, 50u);
  EXPECT_EQ(to_h2, fabric.stats().total);
  EXPECT_EQ(fabric.stats().lost, 0u);
}

TEST_F(FabricFixture, FrameInFlightAcrossAMigrationIsLost) {
  // The VM migrates as its first request is sent.  That frame is already
  // addressed to P1 and lands 7 ms later, after the VM left: lost.  Every
  // later frame is addressed to P2.
  auto& h1 = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  auto& h2 = cluster.add_host(s::HostSpec{"P2", 8, 16384, 2});
  auto& vm = cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({0.5}));
  cluster.place(vm.id(), h1.id());
  n::SdnSwitch slow{q, /*port_latency=*/2, /*serialization=*/5};
  s::RequestFabric fabric(cluster, slow, cfg);
  fabric.wire_ports();
  bool migrated = false;
  slow.add_analyzer([&](const n::Packet& p) {
    if (migrated) return;
    EXPECT_EQ(p.dst_mac, h1.mac());
    migrated = cluster.migrate(vm.id(), h2.id());
  });
  fabric.schedule_hour(0);
  q.run_until(u::kMsPerHour);
  ASSERT_TRUE(migrated);
  EXPECT_EQ(fabric.stats().lost, 1u);
  EXPECT_GT(fabric.stats().total, 50u);
}

TEST_F(FabricFixture, RatesScaleWithActivity) {
  auto& host = cluster.add_host(s::HostSpec{"P1", 16, 32768, 4});
  auto& busy = cluster.add_vm(s::VmSpec{"busy", 2, 6144}, t::ActivityTrace({1.0}));
  auto& quiet = cluster.add_vm(s::VmSpec{"quiet", 2, 6144}, t::ActivityTrace({0.1}));
  cluster.place(busy.id(), host.id());
  cluster.place(quiet.id(), host.id());
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  for (std::int64_t h = 0; h < 20; ++h) {
    fabric.schedule_hour(h);
    q.run_until((h + 1) * u::kMsPerHour);
  }
  // busy sees ~500/h, quiet ~50/h; with 20 hours the totals separate.
  EXPECT_GT(fabric.stats().total, 20u * 300u);
}

namespace {

/// One hour of requests to an awake host whose every latency is exactly
/// the 60 ms service mean (zero jitter), counted against `sla_ms`.
struct ExactLatency : FabricFixture {
  std::vector<double> latencies;

  s::RequestStats run_hour(double sla_ms) {
    auto& host = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
    auto& vm = cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({0.5}));
    cluster.place(vm.id(), host.id());
    cfg.service_ms_mean = 60.0;
    cfg.service_ms_jitter = 0.0;
    cfg.sla_ms = sla_ms;
    s::RequestFabric fabric(cluster, sw, cfg);
    fabric.add_on_complete(
        [this](u::SimTime, double latency_ms, bool) { latencies.push_back(latency_ms); });
    fabric.wire_ports();
    fabric.schedule_hour(0);
    q.run_until(u::kMsPerHour);
    return fabric.stats();
  }
};

}  // namespace

TEST_F(ExactLatency, LatencyEqualToTheSlaCountsAsAttained) {
  const s::RequestStats stats = run_hour(60.0);
  ASSERT_GT(stats.total, 0u);
  for (const double latency : latencies) EXPECT_EQ(latency, 60.0);
  EXPECT_EQ(stats.within_sla, stats.total);
  EXPECT_EQ(stats.sla_attainment(), 1.0);
}

TEST_F(ExactLatency, LatencyJustAboveTheSlaMissesIt) {
  const s::RequestStats stats = run_hour(59.5);
  ASSERT_GT(stats.total, 0u);
  EXPECT_EQ(stats.within_sla, 0u);
  EXPECT_EQ(stats.sla_attainment(), 0.0);
}

TEST(RequestStats, NoRequestsMeanFullAttainment) {
  const s::RequestStats stats;
  EXPECT_EQ(stats.total, 0u);
  EXPECT_EQ(stats.sla_attainment(), 1.0);
}
