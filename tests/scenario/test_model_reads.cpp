// What each policy arm computes: idleness models only where something
// reads them, and suspend checks only on awake hosts.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/suspend_module.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

namespace sc = drowsy::scenario;
namespace u = drowsy::util;

namespace {

constexpr sc::Policy kAllPolicies[] = {sc::Policy::DrowsyDc,      sc::Policy::NeatS3,
                                       sc::Policy::NeatVanilla,   sc::Policy::NeatNoSuspend,
                                       sc::Policy::Oasis,         sc::Policy::DrowsyNetBatch};

sc::ScenarioSpec small_scenario() {
  sc::ScenarioSpec s;
  s.name = "model-reads";
  s.hosts = 2;
  s.host_template = {"", 8, 16384, 2};
  s.vms = {
      {.name_prefix = "backup",
       .count = 2,
       .workload = {.kind = sc::TraceKind::DailyBackup, .hour = 2}},
      {.name_prefix = "busy",
       .count = 2,
       .workload = {.kind = sc::TraceKind::LlmuConstant, .noise = 0.02}},
  };
  s.pretrain_days = 3;
  s.duration_days = 1;
  return s;
}

}  // namespace

TEST(ModelReads, OnlyDrowsyArmsPretrainModels) {
  // Grace time and the IdlenessConsolidator are the only readers; the
  // netbatch pre-wake predictor rides on drowsy-netbatch, which has both.
  const sc::ScenarioSpec spec = small_scenario();
  const std::int64_t hours = static_cast<std::int64_t>(spec.pretrain_days) * u::kHoursPerDay;
  for (const sc::Policy policy : kAllPolicies) {
    SCOPED_TRACE(sc::to_string(policy));
    auto run = sc::build(spec, policy);
    run->controller->pretrain_models(hours);
    const bool drowsy =
        policy == sc::Policy::DrowsyDc || policy == sc::Policy::DrowsyNetBatch;
    EXPECT_EQ(run->controller->reads_models(), drowsy);
    for (const auto& vm : run->cluster.vms()) {
      const auto* model = run->controller->models().find(vm->id());
      if (drowsy) {
        ASSERT_NE(model, nullptr) << vm->name();
        EXPECT_EQ(model->observed_hours(), static_cast<std::uint64_t>(hours)) << vm->name();
      } else {
        EXPECT_EQ(model, nullptr) << vm->name();
      }
    }
    // Simulating does not create them either.
    run->controller->run_hours(2);
    for (const auto& vm : run->cluster.vms()) {
      EXPECT_EQ(run->controller->models().find(vm->id()) != nullptr, drowsy) << vm->name();
    }
  }
}

TEST(SuspendAccounting, EveryCheckEndsInOneDecision) {
  // The check chain parks while its host sleeps, so every check sees an
  // awake host and either suspends it or names what blocked it.
  const sc::ScenarioSpec& spec = sc::ScenarioRegistry::builtin().at("paper-testbed");
  for (const sc::Policy policy : {sc::Policy::DrowsyDc, sc::Policy::NeatS3}) {
    SCOPED_TRACE(sc::to_string(policy));
    auto run = sc::build(spec, policy);
    run->controller->pretrain_models(static_cast<std::int64_t>(spec.pretrain_days) *
                                     u::kHoursPerDay);
    run->controller->run_hours(static_cast<std::int64_t>(spec.duration_days) *
                               u::kHoursPerDay);
    std::uint64_t suspends = 0;
    for (const auto& host : run->cluster.hosts()) {
      const drowsy::core::SuspendStats& s =
          run->controller->suspend_module(host->id()).stats();
      EXPECT_EQ(s.checks, s.suspends + s.blocked_by_grace + s.blocked_by_running +
                              s.blocked_by_io + s.blocked_by_sessions +
                              s.blocked_by_imminent_timer)
          << host->name();
      EXPECT_EQ(s.suspends, static_cast<std::uint64_t>(host->suspend_count()))
          << host->name();
      suspends += s.suspends;
    }
    EXPECT_GT(suspends, 0u);
  }
}
