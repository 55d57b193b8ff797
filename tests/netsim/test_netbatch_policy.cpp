// The DrowsyNetBatch policy arm and the wake-storm-net contention
// scenario: the modeled switch must make concurrent wakes measurably
// slower than fiat wakes, and the staggered pre-wake planner must win
// back SLA attainment at unchanged energy.
#include <gtest/gtest.h>

#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

namespace sc = drowsy::scenario;

namespace {

sc::RunResult storm(const char* scenario, sc::Policy policy) {
  const sc::ScenarioSpec& spec = sc::ScenarioRegistry::builtin().at(scenario);
  return sc::run_one(spec, policy, spec.seed);
}

}  // namespace

TEST(NetBatchPolicy, SwitchContentionRaisesWakeLatency) {
  // Same population, same seed: the only difference is that wake-storm-net
  // routes frames through the serializing switch, so every wake pays port
  // latency plus queueing and the p99 is strictly above the fiat constant.
  const sc::RunResult fiat = storm("wake-storm", sc::Policy::DrowsyDc);
  const sc::RunResult net = storm("wake-storm-net", sc::Policy::DrowsyDc);
  EXPECT_GT(net.wake_latency_p99_ms, fiat.wake_latency_p99_ms);
  EXPECT_GT(net.switch_queue_delay_p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(fiat.switch_queue_delay_p99_ms, 0.0);
  EXPECT_GT(net.wol_frames, 0u);
  // The fabric does not touch the workload: the request schedule and the
  // energy account match the fiat run to within numerical noise.
  EXPECT_NEAR(net.kwh, fiat.kwh, 0.01 * fiat.kwh);
}

TEST(NetBatchPolicy, StaggeredPreWakesRecoverSlaAtSameEnergy) {
  const sc::RunResult dc = storm("wake-storm-net", sc::Policy::DrowsyDc);
  const sc::RunResult nb = storm("wake-storm-net", sc::Policy::DrowsyNetBatch);
  // Pre-waking ahead of the synchronized burst converts wake-path SLA
  // violations into ordinary requests...
  EXPECT_GT(nb.sla_attainment, dc.sla_attainment);
  // ...at the cost of extra WoL frames, not extra energy (the planner
  // only wakes hosts the predictor says the coming hour needs anyway).
  EXPECT_GT(nb.wol_frames, dc.wol_frames);
  EXPECT_NEAR(nb.kwh, dc.kwh, 0.01 * dc.kwh);
}

TEST(NetBatchPolicy, NetScenariosAreByteIdenticalAcrossThreadCounts) {
  // The determinism contract extends to the wake fabric: switch
  // contention and planner decisions all advance on the one event queue,
  // so a 1-thread and a 4-thread batch must agree byte for byte.
  const sc::ScenarioRegistry& reg = sc::ScenarioRegistry::builtin();
  const std::vector<sc::ScenarioSpec> specs = {reg.at("wake-storm-net")};
  const std::vector<sc::Policy> policies = {sc::Policy::DrowsyDc,
                                            sc::Policy::DrowsyNetBatch};
  const auto jobs = sc::cross(specs, policies, 2);
  sc::BatchRunner one(1);
  sc::BatchRunner four(4);
  EXPECT_EQ(sc::to_csv(one.run(jobs)), sc::to_csv(four.run(jobs)));
}

TEST(NetBatchPolicy, PolicyArmSerializesDistinctly) {
  EXPECT_STREQ(sc::to_string(sc::Policy::DrowsyNetBatch), "drowsy-netbatch");
}
