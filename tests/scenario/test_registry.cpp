#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>

namespace sc = drowsy::scenario;
namespace sim = drowsy::sim;

namespace {

// The replay-* scenarios carry repo-relative trace paths; tests run from
// the build tree, so resolve them against the source tree (the same knob
// any out-of-repo run would use).  setenv's 0 keeps an explicit override.
[[maybe_unused]] const int kTraceRootInit = [] {
  ::setenv("DROWSY_TRACE_ROOT", DROWSY_SOURCE_DIR, 0);
  return 0;
}();

}  // namespace

TEST(ScenarioRegistry, BuiltinHasTheCatalogue) {
  const auto& reg = sc::ScenarioRegistry::builtin();
  EXPECT_GE(reg.size(), 8u);
  std::set<std::string> unique;
  for (const sc::ScenarioSpec& spec : reg.all()) unique.insert(spec.name);
  EXPECT_EQ(unique.size(), reg.size()) << "scenario names must be unique";
  // The paper's evaluation workloads are present by name.
  EXPECT_NE(reg.find("paper-testbed"), nullptr);
  EXPECT_NE(reg.find("paper-im-traces"), nullptr);
  EXPECT_NE(reg.find("paper-sim-phases"), nullptr);
}

TEST(ScenarioRegistry, FindAndAtAgree) {
  const auto& reg = sc::ScenarioRegistry::builtin();
  EXPECT_EQ(reg.find("no-such-scenario"), nullptr);
  EXPECT_THROW(static_cast<void>(reg.at("no-such-scenario")), std::out_of_range);
  EXPECT_EQ(&reg.at("paper-testbed"), reg.find("paper-testbed"));
}

TEST(ScenarioRegistry, EveryScenarioValidates) {
  for (const auto& spec : sc::ScenarioRegistry::builtin().all()) {
    EXPECT_EQ(spec.validate(), "") << spec.name;
    EXPECT_GT(spec.total_vms(), 0) << spec.name;
  }
}

TEST(ScenarioRegistry, EveryScenarioBuildsACluster) {
  for (const auto& spec : sc::ScenarioRegistry::builtin().all()) {
    auto run = sc::build(spec, sc::Policy::DrowsyDc, spec.seed);
    ASSERT_NE(run, nullptr) << spec.name;
    EXPECT_EQ(run->cluster.hosts().size(), static_cast<std::size_t>(spec.hosts))
        << spec.name;
    EXPECT_EQ(run->cluster.vms().size(), static_cast<std::size_t>(spec.total_vms()))
        << spec.name;
    // Every VM is placed and every trace is non-empty.
    for (const auto& vm : run->cluster.vms()) {
      EXPECT_NE(run->cluster.host_of(vm->id()), nullptr)
          << spec.name << ": " << vm->name();
      EXPECT_FALSE(vm->workload().empty()) << spec.name << ": " << vm->name();
    }
    EXPECT_EQ(run->baseline, nullptr) << "Drowsy-DC uses the built-in policy";
  }
}

TEST(ScenarioRegistry, BaselinePoliciesGetWired) {
  const auto& spec = sc::ScenarioRegistry::builtin().at("paper-testbed");
  for (const auto policy :
       {sc::Policy::NeatS3, sc::Policy::NeatVanilla, sc::Policy::NeatNoSuspend,
        sc::Policy::Oasis}) {
    auto run = sc::build(spec, policy, spec.seed);
    ASSERT_NE(run->baseline, nullptr) << sc::to_string(policy);
  }
}

TEST(ScenarioRegistry, PaperTestbedMatchesThePaperShape) {
  const auto& spec = sc::ScenarioRegistry::builtin().at("paper-testbed");
  EXPECT_EQ(spec.paper_figure.substr(0, 4), "Fig.");
  auto run = sc::build(spec, sc::Policy::DrowsyDc, spec.seed);
  ASSERT_EQ(run->cluster.hosts().size(), 4u);
  EXPECT_EQ(run->cluster.hosts()[0]->name(), "P2");
  EXPECT_EQ(run->cluster.hosts()[3]->name(), "P5");
  ASSERT_EQ(run->cluster.vms().size(), 8u);
  EXPECT_EQ(run->cluster.vms()[0]->name(), "V1");
  EXPECT_EQ(run->cluster.vms()[7]->name(), "V8");
  // V3 and V4 receive the exact same workload (the paper's key pair).
  EXPECT_EQ(run->cluster.vms()[2]->workload().hours(),
            run->cluster.vms()[3]->workload().hours());
  // V1 and V2 are LLMU but not identical.
  EXPECT_NE(run->cluster.vms()[0]->workload().hours(),
            run->cluster.vms()[1]->workload().hours());
}

TEST(ScenarioRegistry, RejectsInvalidAndDuplicate) {
  sc::ScenarioRegistry reg;
  sc::ScenarioSpec overfull;
  overfull.name = "overfull";
  overfull.hosts = 1;
  overfull.host_template = {"", 8, 16384, 2};
  overfull.vms = {{.name_prefix = "vm", .count = 3, .workload = {}}};  // 3 VMs, 2 slots
  EXPECT_THROW(reg.add(overfull), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(sc::build(overfull, sc::Policy::DrowsyDc, 1)),
               std::invalid_argument);

  sc::ScenarioSpec ok;
  ok.name = "ok";
  ok.hosts = 2;
  ok.host_template = {"", 8, 16384, 2};
  ok.vms = {{.name_prefix = "vm", .count = 2, .workload = {}}};
  reg.add(ok);
  EXPECT_THROW(reg.add(ok), std::invalid_argument) << "duplicate name must be rejected";
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ScenarioRegistry, ValidateCatchesCapacityProblems) {
  sc::ScenarioSpec s;
  s.name = "tight";
  s.hosts = 2;
  s.host_template = {"", 4, 8192, 0};  // unlimited slots, 4 vCPUs
  s.vms = {{.name_prefix = "fat", .count = 4, .vcpus = 4, .memory_mb = 1024, .workload = {}}};
  // Round-robin puts 2 fat VMs (8 vCPUs) on a 4-vCPU host.
  EXPECT_NE(s.validate(), "");
  s.vms[0].vcpus = 2;
  EXPECT_EQ(s.validate(), "");
}

TEST(ScenarioTrace, MaterializeIsDeterministic) {
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::PhaseWindow;
  spec.hour = 8;
  const auto a = sc::materialize(spec, 77);
  const auto b = sc::materialize(spec, 77);
  EXPECT_EQ(a.hours(), b.hours());
  const auto c = sc::materialize(spec, 78);
  EXPECT_NE(a.hours(), c.hours()) << "different fallback seeds must differ";
  // A pinned seed ignores the fallback.
  spec.seed = 1234;
  EXPECT_EQ(sc::materialize(spec, 1).hours(), sc::materialize(spec, 2).hours());
}

TEST(ScenarioTrace, EveryKindMaterializes) {
  using K = sc::TraceKind;
  for (const auto kind :
       {K::DailyBackup, K::ComicStrips, K::LlmuConstant, K::NutanixLike,
        K::DiplomaResults, K::OfficeHours, K::EndOfMonth, K::GoogleLlmu, K::RandomLlmi,
        K::PhaseWindow, K::DutyCycle}) {
    sc::TraceSpec spec;
    spec.kind = kind;
    const auto tr = sc::materialize(spec, 5);
    EXPECT_FALSE(tr.empty()) << sc::to_string(kind);
    for (const double v : tr.hours()) {
      ASSERT_GE(v, 0.0) << sc::to_string(kind);
      ASSERT_LE(v, 1.0) << sc::to_string(kind);
    }
  }
}

TEST(ScenarioTrace, DutyCycleHasTheRequestedShape) {
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::DutyCycle;
  spec.period_hours = 12;
  spec.span_hours = 3;
  spec.hour = 2;
  spec.level = 0.8;
  const auto tr = sc::materialize(spec, 9);
  for (std::size_t h = 0; h < 48; ++h) {
    const bool active = ((h % 12) + 12 - 2) % 12 < 3;
    if (active) {
      EXPECT_GT(tr.at_hour(h), 0.5) << "hour " << h;
    } else {
      EXPECT_EQ(tr.at_hour(h), 0.0) << "hour " << h;
    }
  }
}
