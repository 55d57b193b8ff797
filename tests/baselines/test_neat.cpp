#include "baselines/neat.hpp"

#include <gtest/gtest.h>

#include "indexed_name.hpp"
#include "trace/trace.hpp"

namespace b = drowsy::baselines;
namespace s = drowsy::sim;
namespace t = drowsy::trace;

namespace {

using drowsy_test::indexed_name;

struct NeatFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};

  s::Host& add_host(int max_vms = 4) {
    return cluster.add_host(
        s::HostSpec{indexed_name("P", cluster.hosts().size() + 1), 8, 16384, max_vms});
  }
  s::Vm& add_vm(double level, int mem_mb = 2048) {
    return cluster.add_vm(s::VmSpec{indexed_name("V", cluster.vms().size() + 1), 2, mem_mb},
                          t::ActivityTrace(std::vector<double>(600, level)));
  }
};

}  // namespace

TEST_F(NeatFixture, ThrOverloadDetection) {
  EXPECT_FALSE(b::NeatConsolidation::overloaded(0.85));
  EXPECT_FALSE(b::NeatConsolidation::overloaded(0.9)) << "the threshold itself is not over";
  EXPECT_TRUE(b::NeatConsolidation::overloaded(0.95));
}

TEST_F(NeatFixture, OverloadedHostShedsUntilBelowThreshold) {
  auto& h1 = add_host();
  auto& h2 = add_host();
  (void)h2;
  // 4 VMs × 2 vCPUs × 1.0 / 8 = 1.0: overloaded.
  for (int i = 0; i < 4; ++i) {
    auto& vm = add_vm(1.0);
    cluster.place(vm.id(), h1.id());
  }
  b::NeatConsolidation neat(cluster);
  neat.run_hour(1);
  EXPECT_LT(cluster.host_utilization_at(h1, 1), 0.95);
  EXPECT_GT(cluster.total_migrations(), 0);
}

TEST_F(NeatFixture, MmtPicksSmallestMemoryVm) {
  auto& h1 = add_host();
  auto& h2 = add_host();
  (void)h2;
  auto& big = add_vm(1.0, /*mem_mb=*/8000);
  auto& small = add_vm(1.0, /*mem_mb=*/1000);
  auto& mid1 = add_vm(1.0, /*mem_mb=*/4000);
  auto& mid2 = add_vm(1.0, /*mem_mb=*/3000);
  for (auto* vm : {&big, &small, &mid1, &mid2}) cluster.place(vm->id(), h1.id());
  b::NeatConsolidation neat(cluster);
  neat.run_hour(1);
  // The smallest VM migrates first under minimum-migration-time.
  EXPECT_GT(small.migration_count(), 0);
  EXPECT_EQ(big.migration_count(), 0);
}

TEST_F(NeatFixture, UnderloadedHostEvacuatesToActiveHost) {
  auto& lazy = add_host();
  auto& busy = add_host();
  auto& idle_vm = add_vm(0.05);
  cluster.place(idle_vm.id(), lazy.id());
  auto& busy_vm = add_vm(0.5);
  cluster.place(busy_vm.id(), busy.id());
  b::NeatConsolidation neat(cluster);
  neat.run_hour(1);
  EXPECT_TRUE(lazy.vms().empty()) << "underloaded host evacuated";
  EXPECT_EQ(cluster.host_of(idle_vm.id()), &busy);
}

TEST_F(NeatFixture, EvacuationAbortsWhenNoDestinationFits) {
  auto& lazy = add_host();
  auto& full = add_host(/*max_vms=*/1);
  auto& idle_vm = add_vm(0.05);
  cluster.place(idle_vm.id(), lazy.id());
  auto& blocker = add_vm(0.5);
  cluster.place(blocker.id(), full.id());
  b::NeatConsolidation neat(cluster);
  neat.run_hour(1);
  EXPECT_FALSE(lazy.vms().empty()) << "no feasible plan: nothing moves";
}

TEST_F(NeatFixture, PabfdPrefersAlreadyLoadedHost) {
  auto& h1 = add_host();
  auto& h2 = add_host();
  auto& h3 = add_host();
  (void)h3;
  // h2 is moderately loaded; the evacuated VM should join it rather than
  // the empty h3 (smaller power increase on a loaded host is equal, but
  // PABFD still picks the first minimal — verify it never lands on an
  // overloaded host).
  auto& mover = add_vm(0.1);
  cluster.place(mover.id(), h1.id());
  auto& anchor = add_vm(0.5);
  cluster.place(anchor.id(), h2.id());
  b::NeatConsolidation neat(cluster);
  neat.run_hour(1);
  EXPECT_EQ(cluster.host_of(mover.id()), &h2);
}
