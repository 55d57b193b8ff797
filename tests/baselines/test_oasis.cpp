#include "baselines/oasis.hpp"

#include <gtest/gtest.h>

#include "indexed_name.hpp"
#include "trace/generators.hpp"

namespace b = drowsy::baselines;
namespace s = drowsy::sim;
namespace t = drowsy::trace;

namespace {

using drowsy_test::indexed_name;

struct OasisFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};

  s::Host& add_host(int max_vms = 2) {
    return cluster.add_host(
        s::HostSpec{indexed_name("P", cluster.hosts().size() + 1), 8, 16384, max_vms});
  }
  s::Vm& add_vm(t::ActivityTrace trace) {
    return cluster.add_vm(s::VmSpec{indexed_name("V", cluster.vms().size() + 1), 2, 6144},
                          std::move(trace));
  }
};

}  // namespace

TEST_F(OasisFixture, PairScoreIdenticalTraces) {
  add_host();
  add_host();
  t::GenOptions o;
  o.years = 1;
  auto& a = add_vm(t::daily_backup(o));
  auto& b_vm = add_vm(t::daily_backup(o));
  cluster.place(a.id(), 0);
  cluster.place(b_vm.id(), 1);
  b::OasisConsolidation oasis(cluster);
  for (std::int64_t h = 1; h <= 48; ++h) oasis.run_hour(h);
  EXPECT_DOUBLE_EQ(oasis.pair_score(a.id(), b_vm.id()), 1.0);
}

TEST_F(OasisFixture, PairScoreOppositePhases) {
  add_host();
  add_host();
  // a idle on even hours, active on odd; b the inverse.
  std::vector<double> pa, pb;
  for (int h = 0; h < 600; ++h) {
    pa.push_back(h % 2 == 0 ? 0.0 : 0.5);
    pb.push_back(h % 2 == 0 ? 0.5 : 0.0);
  }
  auto& a = add_vm(t::ActivityTrace(std::move(pa)));
  auto& b_vm = add_vm(t::ActivityTrace(std::move(pb)));
  cluster.place(a.id(), 0);
  cluster.place(b_vm.id(), 1);
  b::OasisConsolidation oasis(cluster);
  for (std::int64_t h = 1; h <= 48; ++h) oasis.run_hour(h);
  EXPECT_DOUBLE_EQ(oasis.pair_score(a.id(), b_vm.id()), 0.0);
}

TEST_F(OasisFixture, UnknownVmScoresZero) {
  b::OasisConsolidation oasis(cluster);
  EXPECT_DOUBLE_EQ(oasis.pair_score(0, 1), 0.0);
}

TEST_F(OasisFixture, RepackColocatesCompatiblePairs) {
  for (int i = 0; i < 2; ++i) add_host();
  t::GenOptions o;
  o.years = 1;
  auto& a1 = add_vm(t::daily_backup(o, 2));
  auto& b1 = add_vm(t::office_hours(o));
  auto& a2 = add_vm(t::daily_backup(o, 2));
  auto& b2 = add_vm(t::office_hours(o));
  // Interleave so the initial placement is "wrong".
  cluster.place(a1.id(), 0);
  cluster.place(b1.id(), 0);
  cluster.place(a2.id(), 1);
  cluster.place(b2.id(), 1);
  b::OasisConsolidation oasis(cluster);
  for (std::int64_t h = 1; h <= 72; ++h) oasis.run_hour(h);
  EXPECT_EQ(cluster.host_of(a1.id()), cluster.host_of(a2.id()))
      << "backup twins should share a host";
  EXPECT_EQ(cluster.host_of(b1.id()), cluster.host_of(b2.id()));
}

TEST_F(OasisFixture, RepackOnlyOnPeriod) {
  add_host();
  add_host();
  auto& a = add_vm(t::ActivityTrace(std::vector<double>(600, 0.0)));
  auto& b_vm = add_vm(t::ActivityTrace(std::vector<double>(600, 0.0)));
  cluster.place(a.id(), 0);
  cluster.place(b_vm.id(), 1);
  b::OasisConsolidation oasis(cluster);
  for (std::int64_t h = 1; h <= 23; ++h) oasis.run_hour(h);
  EXPECT_EQ(cluster.total_migrations(), 0) << "no repack before the period elapses";
  oasis.run_hour(24);
  EXPECT_EQ(cluster.host_of(a.id()), cluster.host_of(b_vm.id()));
}

TEST_F(OasisFixture, LowScorePairsNotForced) {
  add_host();
  add_host();
  std::vector<double> pa, pb;
  for (int h = 0; h < 600; ++h) {
    pa.push_back(h % 2 == 0 ? 0.0 : 0.5);
    pb.push_back(h % 2 == 0 ? 0.5 : 0.0);
  }
  auto& a = add_vm(t::ActivityTrace(std::move(pa)));
  auto& b_vm = add_vm(t::ActivityTrace(std::move(pb)));
  cluster.place(a.id(), 0);
  cluster.place(b_vm.id(), 1);
  b::OasisConsolidation oasis(cluster);
  for (std::int64_t h = 1; h <= 48; ++h) oasis.run_hour(h);
  // Anti-correlated VMs score 0: they are never paired, so each stays a
  // singleton group (first-fit may still place them on the first host? —
  // no: two singleton groups of one VM each fit on host 0's two slots).
  // What matters for the baseline's quality is that the *pair* was not
  // formed because of the score; verify via pair_score.
  EXPECT_LT(oasis.pair_score(a.id(), b_vm.id()), b::OasisConsolidation::kMinScore);
}
