#include "metrics/reports.hpp"

#include <gtest/gtest.h>

#include "net/sdn_switch.hpp"
#include "trace/trace.hpp"

namespace m = drowsy::metrics;
namespace s = drowsy::sim;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace {

struct ReportsFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};
  drowsy::net::SdnSwitch sw{q};

  void SetUp() override {
    cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
    cluster.add_host(s::HostSpec{"P2", 8, 16384, 2});
  }
};

}  // namespace

TEST_F(ReportsFixture, SuspendFractionsComputed) {
  cluster.host(0)->begin_suspend();
  q.run_all();
  q.run_until(u::hours(10.0));
  const auto row = m::suspend_fractions("drowsy", cluster, {0, 1}, 0);
  ASSERT_EQ(row.per_host.size(), 2u);
  EXPECT_GT(row.per_host[0], 0.99);
  EXPECT_DOUBLE_EQ(row.per_host[1], 0.0);
  EXPECT_NEAR(row.global, row.per_host[0] / 2.0, 0.01);
}

TEST_F(ReportsFixture, EnergySummaryPullsClusterState) {
  q.run_until(u::hours(2.0));
  s::RequestFabric fabric(cluster, sw);
  const auto summary = m::summarize("drowsy", cluster, fabric);
  EXPECT_EQ(summary.algorithm, "drowsy");
  // Two idle hosts for 2 h: 2 × 50 W × 2 h = 0.2 kWh.
  EXPECT_NEAR(summary.kwh, 0.2, 1e-6);
  EXPECT_EQ(summary.requests, 0u);
  EXPECT_DOUBLE_EQ(summary.sla_attainment, 1.0);
}

TEST_F(ReportsFixture, EnergyTableRendersRows) {
  s::RequestFabric fabric(cluster, sw);
  const auto a = m::summarize("drowsy-dc", cluster, fabric);
  const auto b = m::summarize("neat-s3", cluster, fabric);
  const std::string table = m::energy_table({a, b});
  EXPECT_NE(table.find("drowsy-dc"), std::string::npos);
  EXPECT_NE(table.find("neat-s3"), std::string::npos);
  EXPECT_NE(table.find("kWh"), std::string::npos);
}
