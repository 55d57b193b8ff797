#include "core/model_builder.hpp"

#include <gtest/gtest.h>

#include "trace/trace.hpp"

namespace c = drowsy::core;
namespace s = drowsy::sim;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace {

u::CalendarTime cal(std::int64_t hour) { return u::calendar_of(hour * u::kMsPerHour); }

struct BuilderFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};
  c::ModelBuilder builder;

  s::Host& add_host() {
    return cluster.add_host(s::HostSpec{"P" + std::to_string(cluster.hosts().size()),
                                        16, 32768, 4});
  }
  s::Vm& add_vm(std::vector<double> trace) {
    return cluster.add_vm(s::VmSpec{"V" + std::to_string(cluster.vms().size()), 2, 6144},
                          t::ActivityTrace(std::move(trace)));
  }
};

}  // namespace

TEST_F(BuilderFixture, ModelCreatedOnDemand) {
  EXPECT_EQ(builder.find(0), nullptr);
  static_cast<void>(builder.model(0));
  EXPECT_NE(builder.find(0), nullptr);
}

TEST_F(BuilderFixture, UnknownVmHasNeutralIp) {
  const auto ip = builder.vm_ip(42, cal(0));
  EXPECT_DOUBLE_EQ(ip.raw, 0.0);
}

TEST_F(BuilderFixture, ObserveHourFeedsLedgerActivity) {
  auto& host = add_host();
  auto& active = add_vm({0.8});
  auto& idle = add_vm({0.0});
  cluster.place(active.id(), host.id());
  cluster.place(idle.id(), host.id());

  cluster.account_hour(0);
  builder.observe_hour(cluster, 0);

  // The active VM's scores went down (toward active), the idle one's
  // stayed at zero (no active history yet).
  EXPECT_LT(builder.vm_ip(active.id(), cal(0)).raw, 0.0);
  EXPECT_DOUBLE_EQ(builder.vm_ip(idle.id(), cal(0)).raw, 0.0);
}

TEST_F(BuilderFixture, UnplacedVmsNotObserved) {
  add_host();
  auto& vm = add_vm({0.9});
  cluster.account_hour(0);
  builder.observe_hour(cluster, 0);
  EXPECT_EQ(builder.find(vm.id()), nullptr);
}

TEST_F(BuilderFixture, HostIpIsAverageOfVmIps) {
  auto& host = add_host();
  auto& a = add_vm({0.8});
  auto& b = add_vm({0.2});
  cluster.place(a.id(), host.id());
  cluster.place(b.id(), host.id());
  for (std::int64_t h = 0; h < 48; ++h) {
    cluster.account_hour(h);
    builder.observe_hour(cluster, h);
  }
  const double expect =
      (builder.vm_ip(a.id(), cal(48)).raw + builder.vm_ip(b.id(), cal(48)).raw) / 2.0;
  EXPECT_DOUBLE_EQ(builder.host_ip(host, cal(48)).raw, expect);
}

TEST_F(BuilderFixture, EmptyHostIpNeutral) {
  auto& host = add_host();
  EXPECT_DOUBLE_EQ(builder.host_ip(host, cal(0)).raw, 0.0);
  EXPECT_DOUBLE_EQ(builder.host_ip_range(host, cal(0)), 0.0);
}

TEST_F(BuilderFixture, HostIpRange) {
  auto& host = add_host();
  auto& busy = add_vm(std::vector<double>(48, 0.9));        // always active
  auto& sleepy = add_vm(std::vector<double>(48, 0.0));      // needs history first
  cluster.place(busy.id(), host.id());
  cluster.place(sleepy.id(), host.id());
  // Give sleepy one active hour then many idle ones so its IP rises.
  builder.model(sleepy.id()).observe_hour(cal(0), 0.5);
  for (std::int64_t h = 0; h < 48; ++h) {
    cluster.account_hour(h);
    builder.observe_hour(cluster, h);
  }
  const double range = builder.host_ip_range(host, cal(48));
  EXPECT_GT(range, 0.0);
  const double lo = builder.vm_ip(busy.id(), cal(48)).raw;
  const double hi = builder.vm_ip(sleepy.id(), cal(48)).raw;
  EXPECT_NEAR(range, std::abs(hi - lo), 1e-15);
}
