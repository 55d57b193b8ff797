#include "sim/cluster.hpp"

#include <gtest/gtest.h>

#include "trace/trace.hpp"

namespace s = drowsy::sim;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace {

struct ClusterFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};

  s::Host& add_host(const std::string& name, int max_vms = 2) {
    return cluster.add_host(s::HostSpec{name, 8, 16384, max_vms});
  }
  s::Vm& add_vm(const std::string& name, std::vector<double> trace = {0.5}) {
    return cluster.add_vm(s::VmSpec{name, 2, 6144}, t::ActivityTrace(std::move(trace)));
  }
};

}  // namespace

TEST_F(ClusterFixture, TopologyAccessors) {
  auto& h = add_host("P1");
  auto& v = add_vm("V1");
  EXPECT_EQ(cluster.host(h.id()), &h);
  EXPECT_EQ(cluster.vm(v.id()), &v);
  EXPECT_EQ(cluster.host(99), nullptr);
  EXPECT_EQ(cluster.vm(99), nullptr);
  EXPECT_EQ(cluster.vm_by_ip(v.ip()), &v);
  EXPECT_EQ(cluster.vm_by_ip(drowsy::net::Ipv4{12345}), nullptr);
  // One past the last VM, and 10.0.0.1 just below the first.
  EXPECT_EQ(cluster.vm_by_ip(drowsy::net::Ipv4::for_vm(v.id() + 1)), nullptr);
  EXPECT_EQ(cluster.vm_by_ip(drowsy::net::Ipv4{(10u << 24) | 1u}), nullptr);
}

TEST_F(ClusterFixture, PlaceAndHostOf) {
  auto& h = add_host("P1");
  auto& v = add_vm("V1");
  EXPECT_EQ(cluster.host_of(v.id()), nullptr);
  EXPECT_TRUE(cluster.place(v.id(), h.id()));
  EXPECT_EQ(cluster.host_of(v.id()), &h);
  EXPECT_EQ(h.vms().size(), 1u);
}

TEST_F(ClusterFixture, PlaceRespectsCapacity) {
  auto& h = add_host("P1", /*max_vms=*/1);
  auto& v1 = add_vm("V1");
  auto& v2 = add_vm("V2");
  EXPECT_TRUE(cluster.place(v1.id(), h.id()));
  EXPECT_FALSE(cluster.place(v2.id(), h.id()));
}

TEST_F(ClusterFixture, MigrateMovesAndCounts) {
  auto& h1 = add_host("P1");
  auto& h2 = add_host("P2");
  auto& v = add_vm("V1");
  cluster.place(v.id(), h1.id());
  EXPECT_TRUE(cluster.migrate(v.id(), h2.id()));
  EXPECT_EQ(cluster.host_of(v.id()), &h2);
  EXPECT_TRUE(h1.vms().empty());
  EXPECT_EQ(v.migration_count(), 1);
  EXPECT_EQ(cluster.total_migrations(), 1);
}

TEST_F(ClusterFixture, MigrateToSameHostIsNoop) {
  auto& h = add_host("P1");
  auto& v = add_vm("V1");
  cluster.place(v.id(), h.id());
  EXPECT_FALSE(cluster.migrate(v.id(), h.id()));
  EXPECT_EQ(cluster.total_migrations(), 0);
}

TEST_F(ClusterFixture, MigrateRespectsCapacity) {
  auto& h1 = add_host("P1");
  auto& h2 = add_host("P2", /*max_vms=*/1);
  auto& v1 = add_vm("V1");
  auto& v2 = add_vm("V2");
  cluster.place(v1.id(), h1.id());
  cluster.place(v2.id(), h2.id());
  EXPECT_FALSE(cluster.migrate(v1.id(), h2.id()));
}

TEST_F(ClusterFixture, ApplyAssignmentSwapsOnFullHosts) {
  // Two full hosts (2 VMs each); swapping a pair across them is impossible
  // with incremental migrate() but must work atomically.
  auto& h1 = add_host("P1");
  auto& h2 = add_host("P2");
  auto& a = add_vm("A");
  auto& b = add_vm("B");
  auto& c = add_vm("C");
  auto& d = add_vm("D");
  cluster.place(a.id(), h1.id());
  cluster.place(b.id(), h1.id());
  cluster.place(c.id(), h2.id());
  cluster.place(d.id(), h2.id());

  EXPECT_TRUE(cluster.apply_assignment({{b.id(), h2.id()}, {c.id(), h1.id()}}));
  EXPECT_EQ(cluster.host_of(b.id()), &h2);
  EXPECT_EQ(cluster.host_of(c.id()), &h1);
  EXPECT_EQ(cluster.total_migrations(), 2);
  EXPECT_EQ(a.migration_count(), 0);
  EXPECT_EQ(b.migration_count(), 1);
}

TEST_F(ClusterFixture, ApplyAssignmentRejectsOverCapacity) {
  auto& h1 = add_host("P1");
  auto& h2 = add_host("P2");
  auto& a = add_vm("A");
  auto& b = add_vm("B");
  auto& c = add_vm("C");
  cluster.place(a.id(), h1.id());
  cluster.place(b.id(), h1.id());
  cluster.place(c.id(), h2.id());
  // Moving C to the already-full P1 must be rejected wholesale.
  EXPECT_FALSE(cluster.apply_assignment({{c.id(), h1.id()}}));
  EXPECT_EQ(cluster.host_of(c.id()), &h2);
  EXPECT_EQ(cluster.total_migrations(), 0);
}

TEST_F(ClusterFixture, ApplyAssignmentNoChangeNoMigration) {
  auto& h1 = add_host("P1");
  auto& v = add_vm("V1");
  cluster.place(v.id(), h1.id());
  EXPECT_TRUE(cluster.apply_assignment({{v.id(), h1.id()}}));
  EXPECT_EQ(cluster.total_migrations(), 0);
}

TEST_F(ClusterFixture, HostUtilization) {
  auto& h = add_host("P1");
  auto& v1 = add_vm("V1", {1.0});  // 2 vCPUs fully busy
  auto& v2 = add_vm("V2", {0.5});  // 2 vCPUs half busy
  cluster.place(v1.id(), h.id());
  cluster.place(v2.id(), h.id());
  // (1.0*2 + 0.5*2) / 8 = 0.375
  EXPECT_NEAR(cluster.host_utilization_at(h, 0), 0.375, 1e-12);
}

TEST_F(ClusterFixture, AccountHourUpdatesLedgersAndUtilization) {
  auto& h = add_host("P1");
  auto& v = add_vm("V1", {0.8});
  cluster.place(v.id(), h.id());
  cluster.account_hour(0);
  EXPECT_NEAR(v.guest().last_hour_activity(), 0.8, 1e-9);
  EXPECT_NEAR(h.utilization(), 0.2, 1e-9);  // 0.8*2/8
}

TEST_F(ClusterFixture, AccountHourAppliesNoiseFloor) {
  auto& h = add_host("P1");
  auto& v = add_vm("V1", {0.004});  // below the 0.005 noise floor
  cluster.place(v.id(), h.id());
  cluster.account_hour(0);
  EXPECT_DOUBLE_EQ(v.guest().last_hour_activity(), 0.0);
}

TEST_F(ClusterFixture, TotalKwhSumsHosts) {
  add_host("P1");
  add_host("P2");
  q.run_until(u::hours(1.0));
  // Two idle hosts for one hour: 2 × 50 Wh = 0.1 kWh.
  EXPECT_NEAR(cluster.total_kwh(), 0.1, 1e-6);
}

TEST_F(ClusterFixture, VmClassDerivedFromTrace) {
  auto& v = add_vm("V1", std::vector<double>(24 * 30, 0.9));
  EXPECT_EQ(v.workload().classify(), t::VmClass::Llmu);
}
