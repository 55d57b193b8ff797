#include "expctl/spec_io.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "expctl/runs_io.hpp"
#include "scenario/registry.hpp"

namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;

TEST(SpecIo, EveryTraceKindRoundTrips) {
  for (const sc::TraceKind kind : ec::all_trace_kinds()) {
    const std::string name = sc::to_string(kind);
    EXPECT_EQ(ec::trace_kind_from_string(name), kind) << name;
    sc::TraceSpec spec;
    spec.kind = kind;
    spec.noise = 0.02;
    spec.seed = 12345678901234567890ull;  // exceeds double precision
    // file-replay is the one kind whose spec is incomplete without a path.
    if (kind == sc::TraceKind::FileReplay) spec.path = "traces/azure_sample.csv";
    const sc::TraceSpec back = ec::trace_spec_from_json(ec::to_json(spec));
    EXPECT_EQ(back.kind, kind);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_DOUBLE_EQ(back.noise, spec.noise);
  }
  EXPECT_THROW(static_cast<void>(ec::trace_kind_from_string("not-a-kind")), ec::SpecError);
}

TEST(SpecIo, EveryPolicyRoundTrips) {
  for (const sc::Policy policy : ec::all_policies()) {
    EXPECT_EQ(ec::policy_from_string(sc::to_string(policy)), policy);
  }
  EXPECT_THROW(static_cast<void>(ec::policy_from_string("not-a-policy")), ec::SpecError);
}

TEST(SpecIo, RegistryScenariosRoundTripExactly) {
  for (const sc::ScenarioSpec& spec : sc::ScenarioRegistry::builtin().all()) {
    const ec::Json j = ec::to_json(spec);
    const sc::ScenarioSpec back = ec::scenario_spec_from_json(j);
    // Re-serialization equality covers every field the JSON carries.
    EXPECT_EQ(ec::to_json(back), j) << spec.name;
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.total_vms(), spec.total_vms());
    EXPECT_EQ(back.suspend_check_interval, spec.suspend_check_interval);
  }
}

TEST(SpecIo, RegistrySerializationIsByteStable) {
  // The acceptance bar: serialize -> parse -> serialize must not move a byte.
  for (const sc::ScenarioSpec& spec : sc::ScenarioRegistry::builtin().all()) {
    const std::string once = ec::to_json(spec).dump();
    const sc::ScenarioSpec back = ec::scenario_spec_from_json(ec::Json::parse(once));
    EXPECT_EQ(ec::to_json(back).dump(), once) << spec.name;
  }
}

TEST(SpecIo, PartialSpecsUseDefaults) {
  const ec::Json j = ec::Json::parse(R"({
    "name": "partial",
    "vms": [{"name_prefix": "v", "count": 2}]
  })");
  const sc::ScenarioSpec spec = ec::scenario_spec_from_json(j);
  const sc::ScenarioSpec defaults;
  EXPECT_EQ(spec.hosts, defaults.hosts);
  EXPECT_EQ(spec.duration_days, defaults.duration_days);
  EXPECT_EQ(spec.seed, defaults.seed);
  EXPECT_EQ(spec.vms.size(), 1u);
  EXPECT_EQ(spec.vms[0].count, 2);
  EXPECT_EQ(spec.vms[0].vcpus, sc::VmGroup{}.vcpus);
}

TEST(SpecIo, MalformedSpecsThrowWithContext) {
  const auto parse = [](const char* text) {
    return ec::scenario_spec_from_json(ec::Json::parse(text));
  };
  // Unknown key (typo detection).
  EXPECT_THROW(static_cast<void>(parse(R"({"name": "x", "duraton_days": 3})")),
               ec::SpecError);
  // Ill-typed field.
  EXPECT_THROW(static_cast<void>(parse(R"({"name": "x", "hosts": "four"})")),
               ec::SpecError);
  // Unknown enum value.
  EXPECT_THROW(static_cast<void>(parse(
                   R"({"name": "x", "vms": [{"workload": {"kind": "warp-drive"}}]})")),
               ec::SpecError);
  // Structurally fine but fails ScenarioSpec::validate().
  EXPECT_THROW(static_cast<void>(parse(R"({"name": "x", "hosts": 0})")), ec::SpecError);
  // Error message carries the offending path.
  try {
    static_cast<void>(parse(R"({"name": "x", "vms": [{"count": true}]})"));
    FAIL() << "expected SpecError";
  } catch (const ec::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("vms[0]"), std::string::npos) << e.what();
  }
}

TEST(SpecIo, ReplayKnobsRoundTripAndStayBackCompatible) {
  // New fields round-trip.
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::FileReplay;
  spec.path = "traces/azure_sample.csv";
  spec.select = "az-003";
  spec.downsample = 4;
  const sc::TraceSpec back = ec::trace_spec_from_json(ec::to_json(spec));
  EXPECT_EQ(back.path, spec.path);
  EXPECT_EQ(back.select, spec.select);
  EXPECT_EQ(back.downsample, spec.downsample);

  // Old-schema back-compat: a pre-replay workload object (no path/select/
  // downsample keys) parses to the defaults.
  const sc::TraceSpec old = ec::trace_spec_from_json(ec::Json::parse(
      R"({"kind": "daily-backup", "hour": 2, "seed": 42})"));
  EXPECT_EQ(old.path, "");
  EXPECT_EQ(old.select, "");
  EXPECT_EQ(old.downsample, 1);

  // The reverse direction of back-compat: non-replay specs must not grow
  // the new keys, or every pre-existing spec_hash fingerprint would move.
  const std::string dump = ec::to_json(old).dump();
  EXPECT_EQ(dump.find("\"path\""), std::string::npos) << dump;
  EXPECT_EQ(dump.find("\"select\""), std::string::npos) << dump;
  EXPECT_EQ(dump.find("\"downsample\""), std::string::npos) << dump;
}

TEST(SpecIo, NetSpecEmitsOnlyWhenSetAndRoundTrips) {
  // A spec with default net knobs must serialize without a "net" key:
  // every pre-netsim sweep's spec_hash fingerprint depends on it.
  sc::ScenarioSpec plain;
  plain.name = "plain";
  plain.hosts = 2;
  plain.vms = {{.name_prefix = "v",
                .count = 2,
                .workload = {.kind = sc::TraceKind::LlmuConstant}}};
  const std::string dump = ec::to_json(plain).dump();
  EXPECT_EQ(dump.find("\"net\""), std::string::npos) << dump;

  // Non-default knobs round-trip through the conditional object.
  sc::ScenarioSpec net = plain;
  net.name = "netty";
  net.net.enabled = true;
  net.net.port_latency = 2;
  net.net.serialization = 5;
  net.net.wake_max_in_flight = 4;
  const sc::ScenarioSpec back = ec::scenario_spec_from_json(ec::to_json(net));
  EXPECT_TRUE(back.net == net.net);

  // Old-schema back-compat: a netless spec parses to default knobs.
  EXPECT_TRUE(plain.net == sc::NetSpec{});
  const sc::ScenarioSpec old =
      ec::scenario_spec_from_json(ec::Json::parse(dump));
  EXPECT_TRUE(old.net == sc::NetSpec{});
}

TEST(SpecIo, NetSpecValidationErrors) {
  const auto parse = [](const std::string& text) {
    return ec::scenario_spec_from_json(ec::Json::parse(text));
  };
  const std::string base =
      R"("hosts": 2, "vms": [{"name_prefix": "v", "count": 2}])";
  // Unknown net keys: a typo, and knobs of the per-host heartbeat and NIC
  // fault injection, which no longer exist.
  const std::pair<std::string, std::string> unknown[] = {
      {"serialisation_ms", R"({"serialisation_ms": 5})"},
      {"heartbeat", R"({"heartbeat": false})"},
      {"nic_fail_host", R"({"nic_fail_host": 1})"}};
  for (const auto& [key, net] : unknown) {
    try {
      static_cast<void>(parse(R"({"name": "x", )" + base + R"(, "net": )" + net + "}"));
      ADD_FAILURE() << net << " was accepted";
    } catch (const ec::SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key \"" + key + "\""),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SpecIo, ReplaySpecValidationErrors) {
  // path without the file-replay kind.
  EXPECT_THROW(static_cast<void>(ec::trace_spec_from_json(ec::Json::parse(
                   R"({"kind": "daily-backup", "path": "x.csv"})"))),
               ec::SpecError);
  // file-replay without a path.
  EXPECT_THROW(static_cast<void>(ec::trace_spec_from_json(
                   ec::Json::parse(R"({"kind": "file-replay"})"))),
               ec::SpecError);
  // downsample below 1.
  EXPECT_THROW(static_cast<void>(ec::trace_spec_from_json(ec::Json::parse(
                   R"({"kind": "file-replay", "path": "x.csv", "downsample": 0})"))),
               ec::SpecError);
}

TEST(SpecIo, UnknownTraceKindNamesKeyAndValidKinds) {
  try {
    static_cast<void>(ec::trace_spec_from_json(
        ec::Json::parse(R"({"kind": "azure-replay"})")));
    FAIL() << "expected SpecError";
  } catch (const ec::SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("workload.kind"), std::string::npos) << msg;
    EXPECT_NE(msg.find("azure-replay"), std::string::npos) << msg;
    EXPECT_NE(msg.find("known:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("file-replay"), std::string::npos)
        << "valid-kind list must include the new kind: " << msg;
  }
}

TEST(SpecIo, SweepOverRegistryNamesMatchesCross) {
  const ec::Json j = ec::Json::parse(R"({
    "name": "two",
    "scenarios": ["paper-testbed", "dev-fleet-idle"],
    "policies": ["drowsy-dc", "oasis"],
    "replicates": 3
  })");
  const ec::SweepSpec sweep = ec::sweep_from_json(j, sc::ScenarioRegistry::builtin());
  const auto jobs = ec::expand(sweep);

  const auto& registry = sc::ScenarioRegistry::builtin();
  const auto expected = sc::cross({registry.at("paper-testbed"), registry.at("dev-fleet-idle")},
                                  {sc::Policy::DrowsyDc, sc::Policy::Oasis}, 3);
  ASSERT_EQ(jobs.size(), expected.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].spec.name, expected[i].spec.name) << i;
    EXPECT_EQ(jobs[i].policy, expected[i].policy) << i;
    EXPECT_EQ(jobs[i].seed, expected[i].seed) << i;
  }
}

TEST(SpecIo, SweepDefaultsToPaperPolicies) {
  const ec::Json j = ec::Json::parse(R"({"scenarios": ["paper-testbed"]})");
  const ec::SweepSpec sweep = ec::sweep_from_json(j, sc::ScenarioRegistry::builtin());
  ASSERT_EQ(sweep.policies.size(), sc::kPaperPolicies.size());
  for (std::size_t i = 0; i < sweep.policies.size(); ++i) {
    EXPECT_EQ(sweep.policies[i], sc::kPaperPolicies[i]);
  }
}

TEST(SpecIo, SweepAxesExpandIntoSuffixedVariants) {
  const ec::Json j = ec::Json::parse(R"({
    "name": "axes",
    "scenarios": ["dev-fleet-idle"],
    "policies": ["drowsy-dc"],
    "seeds": [7, 8],
    "axes": {"hosts": [4, 8], "request_rate_per_hour": [10, 120.5]}
  })");
  const ec::SweepSpec sweep = ec::sweep_from_json(j, sc::ScenarioRegistry::builtin());
  const auto jobs = ec::expand(sweep);
  // 1 scenario x 2 hosts x 2 rates x 1 policy x 2 seeds.
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(jobs[0].spec.name, "dev-fleet-idle.h4.r10");
  EXPECT_EQ(jobs[0].spec.hosts, 4);
  EXPECT_DOUBLE_EQ(jobs[0].spec.request_rate_per_hour, 10.0);
  EXPECT_EQ(jobs[0].seed, 7u);
  EXPECT_EQ(jobs[1].seed, 8u);
  EXPECT_EQ(jobs[2].spec.name, "dev-fleet-idle.h4.r120.5");
  EXPECT_EQ(jobs[4].spec.name, "dev-fleet-idle.h8.r10");
  EXPECT_EQ(jobs[4].spec.hosts, 8);
  // Every derived name still passes validate()'s naming rules.
  for (const auto& job : jobs) EXPECT_EQ(job.spec.validate(), "") << job.spec.name;
}

TEST(SpecIo, AblationAxesExpandGraceAndCheckInterval) {
  const ec::Json j = ec::Json::parse(R"({
    "name": "ablation",
    "scenarios": ["dev-fleet-idle"],
    "policies": ["drowsy-dc"],
    "axes": {"grace_max_ms": [30000, 120000], "suspend_check_interval_ms": [15000]}
  })");
  const ec::SweepSpec sweep = ec::sweep_from_json(j, sc::ScenarioRegistry::builtin());
  const auto jobs = ec::expand(sweep);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].spec.name, "dev-fleet-idle.g30000.c15000");
  EXPECT_EQ(jobs[0].spec.grace_max, 30000);
  EXPECT_EQ(jobs[0].spec.suspend_check_interval, 15000);
  EXPECT_EQ(jobs[1].spec.grace_max, 120000);
  // A grace_max below the default grace_min (5 s) pulls the floor down
  // with it instead of tripping validate().
  const ec::Json tiny = ec::Json::parse(R"({
    "scenarios": ["dev-fleet-idle"], "axes": {"grace_max_ms": [1000]}
  })");
  const auto tiny_jobs =
      ec::expand(ec::sweep_from_json(tiny, sc::ScenarioRegistry::builtin()));
  ASSERT_EQ(tiny_jobs.size(), 3u);  // paper's 3 default policies
  EXPECT_EQ(tiny_jobs[0].spec.grace_max, 1000);
  EXPECT_LE(tiny_jobs[0].spec.grace_min, 1000);
  for (const auto& job : tiny_jobs) EXPECT_EQ(job.spec.validate(), "") << job.spec.name;
}

TEST(SpecIo, SweepToJsonRoundTripsToTheSameGrid) {
  // The `study dump` path: a resolved SweepSpec serialized with
  // to_json(SweepSpec) must parse back into a sweep that expands to the
  // identical grid — names, axes, seeds and all.
  const ec::Json j = ec::Json::parse(R"({
    "name": "round-trip",
    "scenarios": ["dev-fleet-idle", "paper-testbed"],
    "policies": ["drowsy-dc", "neat+s3"],
    "seeds": [7, 8],
    "axes": {"hosts": [4, 8], "grace_max_ms": [30000, 120000]}
  })");
  const ec::SweepSpec sweep = ec::sweep_from_json(j, sc::ScenarioRegistry::builtin());
  const ec::SweepSpec back = ec::sweep_from_json(ec::Json::parse(ec::to_json(sweep).dump()),
                                                 sc::ScenarioRegistry::builtin());
  const auto direct = ec::expand(sweep);
  const auto via_json = ec::expand(back);
  ASSERT_EQ(direct.size(), via_json.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].spec.name, via_json[i].spec.name) << i;
    EXPECT_EQ(ec::spec_hash(direct[i].spec), ec::spec_hash(via_json[i].spec)) << i;
    EXPECT_EQ(direct[i].policy, via_json[i].policy) << i;
    EXPECT_EQ(direct[i].seed, via_json[i].seed) << i;
  }
  // Replicate-based sweeps serialize "replicates" instead of "seeds".
  ec::SweepSpec replicated = sweep;
  replicated.seeds.clear();
  replicated.replicates = 3;
  const ec::Json dumped = ec::to_json(replicated);
  EXPECT_EQ(dumped.find("seeds"), nullptr);
  const ec::SweepSpec back2 = ec::sweep_from_json(ec::Json::parse(dumped.dump()),
                                                  sc::ScenarioRegistry::builtin());
  EXPECT_EQ(back2.replicates, 3u);
  EXPECT_EQ(ec::expand(back2).size(), ec::expand(replicated).size());
}

TEST(SpecIo, GraceFieldsRoundTripAndValidate) {
  sc::ScenarioSpec spec = *sc::ScenarioRegistry::builtin().find("dev-fleet-idle");
  spec.grace_min = 2000;
  spec.grace_max = 45000;
  const ec::Json j = ec::to_json(spec);
  const sc::ScenarioSpec back = ec::scenario_spec_from_json(j);
  EXPECT_EQ(back.grace_min, 2000);
  EXPECT_EQ(back.grace_max, 45000);
  spec.grace_max = 1000;  // below grace_min
  EXPECT_NE(spec.validate(), "");
}

TEST(SpecIo, SweepRejectsBadInput) {
  const auto& registry = sc::ScenarioRegistry::builtin();
  const auto parse = [&](const char* text) {
    return ec::sweep_from_json(ec::Json::parse(text), registry);
  };
  // Unknown registry name.
  EXPECT_THROW(static_cast<void>(parse(R"({"scenarios": ["no-such"]})")), ec::SpecError);
  // Empty scenario list.
  EXPECT_THROW(static_cast<void>(parse(R"({"scenarios": []})")), ec::SpecError);
  // seeds and replicates are mutually exclusive.
  EXPECT_THROW(static_cast<void>(parse(
                   R"({"scenarios": ["paper-testbed"], "seeds": [1], "replicates": 2})")),
               ec::SpecError);
  // Zero replicates.
  EXPECT_THROW(static_cast<void>(
                   parse(R"({"scenarios": ["paper-testbed"], "replicates": 0})")),
               ec::SpecError);
  // Unknown policy.
  EXPECT_THROW(static_cast<void>(
                   parse(R"({"scenarios": ["paper-testbed"], "policies": ["magic"]})")),
               ec::SpecError);
  // Seed 0 is BatchJob's "use spec.seed" sentinel; accepting it would
  // silently duplicate the spec-seed replicate and corrupt the stats.
  EXPECT_THROW(static_cast<void>(
                   parse(R"({"scenarios": ["paper-testbed"], "seeds": [0, 42]})")),
               ec::SpecError);
  // Axis that breaks capacity: paper-testbed's 8 VMs on 1 host of 2 slots.
  const ec::SweepSpec infeasible = parse(
      R"({"scenarios": ["paper-testbed"], "axes": {"hosts": [1]}})");
  EXPECT_THROW(static_cast<void>(ec::expand(infeasible)), ec::SpecError);
  // Axis typos are dotted-path errors, same as the established axes.
  try {
    static_cast<void>(parse(
        R"({"scenarios": ["paper-testbed"], "axes": {"grace_ms": [1000]}})"));
    FAIL() << "typo'd axis key must throw";
  } catch (const ec::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("sweep.axes"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("grace_ms"), std::string::npos) << e.what();
  }
  // Non-positive durations are rejected per-axis.
  EXPECT_THROW(
      static_cast<void>(parse(
          R"({"scenarios": ["paper-testbed"], "axes": {"grace_max_ms": [0]}})")),
      ec::SpecError);
  EXPECT_THROW(static_cast<void>(parse(
                   R"({"scenarios": ["paper-testbed"],
                       "axes": {"suspend_check_interval_ms": [-5]}})")),
               ec::SpecError);
}

TEST(SpecIo, InlineSweepScenario) {
  const ec::Json j = ec::Json::parse(R"({
    "name": "inline",
    "scenarios": [{
      "name": "mini",
      "hosts": 2,
      "vms": [{"name_prefix": "v", "count": 2,
               "workload": {"kind": "office-hours"}}],
      "pretrain_days": 1,
      "duration_days": 1
    }],
    "policies": ["drowsy-dc"]
  })");
  const ec::SweepSpec sweep = ec::sweep_from_json(j, sc::ScenarioRegistry::builtin());
  ASSERT_EQ(sweep.scenarios.size(), 1u);
  EXPECT_EQ(sweep.scenarios[0].name, "mini");
  EXPECT_EQ(ec::expand(sweep).size(), 1u);
}
