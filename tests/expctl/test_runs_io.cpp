#include "expctl/runs_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "expctl/spec_io.hpp"
#include "scenario/registry.hpp"

namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;

namespace {

sc::RunResult sample_result() {
  sc::RunResult r;
  r.scenario = "paper-testbed";
  r.policy = "drowsy-dc";
  r.seed = 0xDEADBEEFCAFEF00Dull;
  r.simulated_hours = 72;
  r.kwh = 12.3456789012345678;  // more precision than %.6f keeps
  r.suspend_fraction = 0.123456789;
  r.sla_attainment = 1.0 / 3.0;
  r.wake_latency_p99_ms = 812.0000001;
  r.requests = 1234;
  r.wakes = 567;
  r.migrations = -3;  // int fields round-trip signed values too
  r.suspends = 42;
  r.host_suspend_fraction = {0.0, 0.987654321987654321, 1.0 / 7.0};
  r.switch_queue_delay_p99_ms = 5.0000001;
  r.wol_frames = 27;
  r.host_unreachable_s = 21585.001;
  return r;
}

}  // namespace

TEST(RunsIo, Hex64RoundTrip) {
  for (const std::uint64_t v : {0ull, 1ull, 0xCBF29CE484222325ull, ~0ull}) {
    EXPECT_EQ(ec::parse_hex64(ec::hex64(v)), v);
  }
  EXPECT_EQ(ec::hex64(0), "0000000000000000");
  EXPECT_THROW(static_cast<void>(ec::parse_hex64("xyz")), ec::SpecError);
  EXPECT_THROW(static_cast<void>(ec::parse_hex64("00000000000000")), ec::SpecError);
  EXPECT_THROW(static_cast<void>(ec::parse_hex64("00000000000000ZZ")), ec::SpecError);
}

TEST(RunsIo, RunResultRoundTripsExactly) {
  const sc::RunResult r = sample_result();
  const ec::Json j = ec::to_json(r);
  const sc::RunResult back = ec::run_result_from_json(j);
  EXPECT_EQ(back.scenario, r.scenario);
  EXPECT_EQ(back.policy, r.policy);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.simulated_hours, r.simulated_hours);
  // Bit-exact doubles, not just approximately equal — merged CSVs must be
  // byte-identical to single-process ones.
  EXPECT_EQ(back.kwh, r.kwh);
  EXPECT_EQ(back.suspend_fraction, r.suspend_fraction);
  EXPECT_EQ(back.sla_attainment, r.sla_attainment);
  EXPECT_EQ(back.wake_latency_p99_ms, r.wake_latency_p99_ms);
  EXPECT_EQ(back.requests, r.requests);
  EXPECT_EQ(back.wakes, r.wakes);
  EXPECT_EQ(back.migrations, r.migrations);
  EXPECT_EQ(back.suspends, r.suspends);
  EXPECT_EQ(back.host_suspend_fraction, r.host_suspend_fraction);  // bit-exact
  EXPECT_EQ(back.switch_queue_delay_p99_ms, r.switch_queue_delay_p99_ms);
  EXPECT_EQ(back.wol_frames, r.wol_frames);
  EXPECT_EQ(back.host_unreachable_s, r.host_unreachable_s);
  // Dump byte-stability through a second cycle.
  EXPECT_EQ(ec::to_json(back).dump(), j.dump());
}

TEST(RunsIo, EveryRunResultKeyIsRequired) {
  // One schema, strictly parsed: a row missing any key (the per-host
  // fractions and the wake-fabric metrics included) is a typed error
  // naming that key, never a zero-filled result.
  const ec::Json full = ec::to_json(sample_result());
  ASSERT_EQ(full.items().size(), 16u);
  for (const auto& [dropped, unused] : full.items()) {
    ec::Json row = ec::Json::object();
    for (const auto& [key, value] : full.items()) {
      if (key != dropped) row.set(key, value);
    }
    try {
      static_cast<void>(ec::run_result_from_json(row));
      ADD_FAILURE() << "a row without \"" << dropped << "\" parsed";
    } catch (const ec::SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + dropped + "\""), std::string::npos)
          << e.what();
    }
  }
}

TEST(RunsIo, WakeFabricAndHostFractionFieldsRejectWrongTypes) {
  for (const char* key : {"wol_frames", "switch_queue_delay_p99_ms", "host_unreachable_s"}) {
    ec::Json wrong_type = ec::to_json(sample_result());
    wrong_type.set(key, "many");
    EXPECT_THROW(static_cast<void>(ec::run_result_from_json(wrong_type)), ec::SpecError)
        << key;
  }
  ec::Json wrong_type = ec::to_json(sample_result());
  wrong_type.set("host_suspend_fraction", "nope");
  EXPECT_THROW(static_cast<void>(ec::run_result_from_json(wrong_type)), ec::SpecError);
  ec::Json bad_element = ec::Json::array();
  bad_element.push_back(0.5);
  bad_element.push_back("half");
  wrong_type.set("host_suspend_fraction", bad_element);
  EXPECT_THROW(static_cast<void>(ec::run_result_from_json(wrong_type)), ec::SpecError);
}

TEST(RunsIo, RunResultParseIsStrict) {
  ec::Json j = ec::to_json(sample_result());
  j.set("surprise", 1);
  EXPECT_THROW(static_cast<void>(ec::run_result_from_json(j)), ec::SpecError);

  ec::Json missing = ec::Json::object();
  missing.set("scenario", "s");
  EXPECT_THROW(static_cast<void>(ec::run_result_from_json(missing)), ec::SpecError);

  ec::Json wrong_type = ec::to_json(sample_result());
  wrong_type.set("kwh", "lots");
  EXPECT_THROW(static_cast<void>(ec::run_result_from_json(wrong_type)), ec::SpecError);
}

TEST(RunsIo, SpecHashTracksContent) {
  const sc::ScenarioSpec base = *sc::ScenarioRegistry::builtin().find("paper-testbed");
  sc::ScenarioSpec tweaked = base;
  EXPECT_EQ(ec::spec_hash(base), ec::spec_hash(tweaked));  // copies hash equal
  tweaked.request_rate_per_hour += 1.0;
  EXPECT_NE(ec::spec_hash(base), ec::spec_hash(tweaked));
}
