#include "core/consolidation.hpp"

#include <gtest/gtest.h>

#include "trace/generators.hpp"

namespace c = drowsy::core;
namespace s = drowsy::sim;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace {

u::CalendarTime cal(std::int64_t hour) { return u::calendar_of(hour * u::kMsPerHour); }

struct ConsolidationFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};
  c::ModelBuilder builder;

  s::Host& add_host(int max_vms = 2) {
    // Memory scales with the slot count so max_vms is the binding limit.
    return cluster.add_host(s::HostSpec{"P" + std::to_string(cluster.hosts().size() + 1), 8,
                                        6144 * max_vms + 2048, max_vms});
  }
  s::Vm& add_vm(t::ActivityTrace trace) {
    return cluster.add_vm(s::VmSpec{"V" + std::to_string(cluster.vms().size() + 1), 2, 6144},
                          std::move(trace));
  }

  /// Train models on `hours` of each VM's trace.
  void train(std::int64_t hours) {
    for (std::int64_t h = 0; h < hours; ++h) {
      for (const auto& vm : cluster.vms()) {
        const double a = vm->activity_at_hour(h);
        builder.model(vm->id()).observe_hour(cal(h), a > drowsy::kern::kNoiseFloor ? a : 0.0);
      }
    }
  }
};

}  // namespace

TEST_F(ConsolidationFixture, InitialPlacementPicksClosestIp) {
  auto& h1 = add_host();
  auto& h2 = add_host();
  // h1 hosts an always-active VM (low IP); h2 hosts a mostly-idle one.
  auto& busy = add_vm(t::ActivityTrace(std::vector<double>(300, 0.9)));
  t::GenOptions o;
  o.years = 1;
  auto& sleepy = add_vm(t::daily_backup(o));
  cluster.place(busy.id(), h1.id());
  cluster.place(sleepy.id(), h2.id());
  train(14 * 24);

  c::IdlenessConsolidator consolidator(cluster, builder);
  // A new backup-like VM (idle-leaning IP) should land next to sleepy.
  auto& newcomer = add_vm(t::daily_backup(o, /*hour=*/3));
  static_cast<void>(builder.model(newcomer.id()));
  train(0);
  // Give the newcomer a couple of weeks of history too.
  for (std::int64_t h = 0; h < 14 * 24; ++h) {
    const double a = newcomer.activity_at_hour(h);
    builder.model(newcomer.id()).observe_hour(cal(h), a > drowsy::kern::kNoiseFloor ? a : 0.0);
  }
  const auto target = consolidator.initial_placement(newcomer, cal(14 * 24 + 5));
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, h2.id());
}

TEST_F(ConsolidationFixture, InitialPlacementNulloptWhenFull) {
  auto& h1 = add_host(/*max_vms=*/1);
  auto& only = add_vm(t::ActivityTrace({0.5}));
  cluster.place(only.id(), h1.id());
  auto& extra = add_vm(t::ActivityTrace({0.5}));
  c::IdlenessConsolidator consolidator(cluster, builder);
  EXPECT_FALSE(consolidator.initial_placement(extra, cal(0)).has_value());
}

TEST_F(ConsolidationFixture, RelocateAllPairsIdenticalWorkloads) {
  // Two mixed-pair hosts: {backup, office} twice.  At a working hour the
  // per-host IP range is wide (office VMs are predicted active, backup
  // VMs idle), which triggers the repack; after it, identical workloads
  // share hosts (the Fig. 2 behaviour for V3/V4).
  for (int i = 0; i < 4; ++i) add_host();
  t::GenOptions o;
  o.years = 1;
  auto& a1 = add_vm(t::daily_backup(o, 2));
  auto& a2 = add_vm(t::daily_backup(o, 2));   // same workload as a1
  auto& b1 = add_vm(t::office_hours(o));
  auto& b2 = add_vm(t::office_hours(o));      // same workload as b1
  cluster.place(a1.id(), 0);
  cluster.place(b1.id(), 0);
  cluster.place(a2.id(), 1);
  cluster.place(b2.id(), 1);
  train(8 * 7 * 24);

  c::IdlenessConsolidator consolidator(cluster, builder);
  const std::int64_t working_hour = 8 * 7 * 24 + 10;  // 10:00 on a weekday
  consolidator.relocate_all(working_hour);

  EXPECT_EQ(cluster.host_of(a1.id()), cluster.host_of(a2.id()))
      << "identical workloads must be colocated";
  EXPECT_EQ(cluster.host_of(b1.id()), cluster.host_of(b2.id()));
  EXPECT_NE(cluster.host_of(a1.id()), cluster.host_of(b1.id()));
}

TEST_F(ConsolidationFixture, RelocateAllStableAcrossRepeats) {
  for (int i = 0; i < 2; ++i) add_host();
  t::GenOptions o;
  o.years = 1;
  auto& a = add_vm(t::daily_backup(o));
  auto& b = add_vm(t::llmu_constant(o));
  cluster.place(a.id(), 0);
  cluster.place(b.id(), 1);
  train(14 * 24);

  c::IdlenessConsolidator consolidator(cluster, builder);
  consolidator.relocate_all(14 * 24);
  const int after_first = cluster.total_migrations();
  // Re-running with unchanged models must not churn placements.
  consolidator.relocate_all(14 * 24);
  consolidator.relocate_all(14 * 24);
  EXPECT_EQ(cluster.total_migrations(), after_first);
}

TEST_F(ConsolidationFixture, OverloadedHostShedsVms) {
  auto& h1 = add_host(/*max_vms=*/4);
  auto& h2 = add_host(/*max_vms=*/4);
  (void)h2;
  // Four always-busy VMs on h1: utilization 4*2*1.0/8 = 1.0 > 0.9.
  for (int i = 0; i < 4; ++i) {
    auto& vm = add_vm(t::ActivityTrace(std::vector<double>(300, 1.0)));
    cluster.place(vm.id(), h1.id());
  }
  train(24);
  c::IdlenessConsolidator consolidator(cluster, builder);
  consolidator.run_hour(24);
  EXPECT_LT(h1.vms().size(), 4u) << "overloaded host must shed at least one VM";
  EXPECT_GT(cluster.total_migrations(), 0);
}

TEST_F(ConsolidationFixture, UnderloadedHostEvacuates) {
  auto& h1 = add_host(/*max_vms=*/4);
  auto& h2 = add_host(/*max_vms=*/4);
  // h1: one nearly idle VM; h2: moderately busy VMs.
  auto& lonely = add_vm(t::ActivityTrace(std::vector<double>(300, 0.02)));
  cluster.place(lonely.id(), h1.id());
  for (int i = 0; i < 2; ++i) {
    auto& vm = add_vm(t::ActivityTrace(std::vector<double>(300, 0.5)));
    cluster.place(vm.id(), h2.id());
  }
  train(24);
  c::IdlenessConsolidator consolidator(cluster, builder);
  consolidator.run_hour(24);
  EXPECT_TRUE(h1.vms().empty()) << "underloaded host should fully evacuate";
  EXPECT_EQ(cluster.host_of(lonely.id()), &h2);
}

TEST_F(ConsolidationFixture, OpportunisticStepClosesWideIpRange) {
  auto& h1 = add_host(/*max_vms=*/4);
  auto& h2 = add_host(/*max_vms=*/4);
  t::GenOptions o;
  o.years = 1;
  // h1 mixes an always-active VM with an almost-always-idle VM: IP range
  // far beyond 7 sigma.  h2 hosts a VM similar to the idle one.
  auto& active = add_vm(t::llmu_constant(o));
  auto& idle1 = add_vm(t::daily_backup(o, 2));
  auto& idle2 = add_vm(t::daily_backup(o, 2));
  cluster.place(active.id(), h1.id());
  cluster.place(idle1.id(), h1.id());
  cluster.place(idle2.id(), h2.id());
  train(30 * 24);

  const double sigma = builder.config().sigma;
  ASSERT_GT(builder.host_ip_range(h1, cal(30 * 24)), 7.0 * sigma);

  c::PlacementConfig cfg;
  cfg.underload_utilization = 0.0;  // isolate the opportunistic step
  c::IdlenessConsolidator consolidator(cluster, builder, cfg);
  consolidator.run_hour(30 * 24);

  EXPECT_LE(builder.host_ip_range(h1, cal(30 * 24)), 7.0 * sigma);
  // The idle pair ends up together.
  EXPECT_EQ(cluster.host_of(idle1.id()), cluster.host_of(idle2.id()));
}

TEST_F(ConsolidationFixture, OpportunisticStepDisabledByConfig) {
  auto& h1 = add_host(/*max_vms=*/4);
  add_host(/*max_vms=*/4);
  t::GenOptions o;
  o.years = 1;
  auto& active = add_vm(t::llmu_constant(o));
  auto& idle1 = add_vm(t::daily_backup(o, 2));
  cluster.place(active.id(), h1.id());
  cluster.place(idle1.id(), h1.id());
  train(30 * 24);

  c::PlacementConfig cfg;
  cfg.opportunistic_step = false;
  cfg.underload_utilization = 0.0;
  c::IdlenessConsolidator consolidator(cluster, builder, cfg);
  consolidator.run_hour(30 * 24);
  EXPECT_EQ(cluster.total_migrations(), 0);
}

TEST_F(ConsolidationFixture, OpportunisticThresholdScalesByTheModelBuildersSigma) {
  // The too-wide VM-IP range is 7σ of the ModelBuilder's config: with
  // σ' = σ/2, a range past 7σ' but under 7σ is too wide, and a VM moves.
  c::IdlenessModelConfig model_cfg;
  model_cfg.sigma /= 2.0;
  c::ModelBuilder halved(model_cfg);
  auto& h1 = add_host();
  add_host();
  auto& idle = add_vm(t::ActivityTrace(std::vector<double>(24, 0.0)));
  auto& unknown = add_vm(t::ActivityTrace(std::vector<double>(24, 0.0)));  // raw IP 0
  cluster.place(idle.id(), h1.id());
  cluster.place(unknown.id(), h1.id());
  c::IdlenessModel& model = halved.model(idle.id());
  model.observe_hour(cal(1), 1.0);  // idle hours now count
  const double too_wide = c::kDeterminedIpSigmas * model_cfg.sigma;
  for (int i = 0; i < 100 && halved.host_ip_range(h1, cal(0)) <= too_wide; ++i) {
    model.observe_hour(cal(0), 0.0);
  }
  const double range = halved.host_ip_range(h1, cal(0));
  ASSERT_GT(range, too_wide);
  ASSERT_LT(range, c::kDeterminedIpSigmas * c::IdlenessModelConfig{}.sigma);

  c::PlacementConfig cfg;
  cfg.underload_utilization = 0.0;  // isolate the opportunistic step
  c::IdlenessConsolidator consolidator(cluster, halved, cfg);
  consolidator.run_hour(0);
  EXPECT_EQ(cluster.total_migrations(), 1);
}
