#include "scenario/batch_runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "expctl/runs_io.hpp"

namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;

namespace {

/// A deliberately small scenario so batch tests stay fast: 2 hosts,
/// 4 VMs (one sleepy backup pair, one busy pair), one simulated day.
sc::ScenarioSpec tiny_scenario(const std::string& name, std::uint64_t seed) {
  sc::ScenarioSpec s;
  s.name = name;
  s.hosts = 2;
  s.host_template = {"", 8, 16384, 2};
  s.vms = {
      {.name_prefix = "idle",
       .count = 2,
       .workload = {.kind = sc::TraceKind::DailyBackup, .hour = 2}},
      {.name_prefix = "busy",
       .count = 2,
       .workload = {.kind = sc::TraceKind::LlmuConstant, .noise = 0.02}},
  };
  s.pretrain_days = 2;
  s.duration_days = 1;
  s.request_rate_per_hour = 30.0;
  s.seed = seed;
  return s;
}

}  // namespace

TEST(BatchRunner, CrossEnumeratesDeterministically) {
  const std::vector<sc::ScenarioSpec> specs = {tiny_scenario("a", 1),
                                               tiny_scenario("b", 2)};
  const std::vector<sc::Policy> policies = {sc::Policy::DrowsyDc, sc::Policy::NeatS3};
  const auto jobs = sc::cross(specs, policies, 3);
  ASSERT_EQ(jobs.size(), 2u * 2u * 3u);
  // First replicate uses the spec seed; later replicates derive from it.
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[1].seed, sc::mix_seed(1, 1));
  EXPECT_EQ(jobs[2].seed, sc::mix_seed(1, 2));
  const auto again = sc::cross(specs, policies, 3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].seed, again[i].seed);
    EXPECT_EQ(jobs[i].spec.name, again[i].spec.name);
  }
}

TEST(BatchRunner, ResultsArriveInJobOrder) {
  sc::BatchRunner runner(4);
  const auto jobs =
      sc::cross({tiny_scenario("tiny", 5)},
                {sc::Policy::DrowsyDc, sc::Policy::NeatS3, sc::Policy::Oasis}, 1);
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].policy, "drowsy-dc");
  EXPECT_EQ(results[1].policy, "neat+s3");
  EXPECT_EQ(results[2].policy, "oasis");
  for (const auto& r : results) {
    EXPECT_EQ(r.scenario, "tiny");
    EXPECT_EQ(r.simulated_hours, 24);
    EXPECT_GT(r.kwh, 0.0);
    EXPECT_GT(r.requests, 0u);
    EXPECT_GE(r.sla_attainment, 0.0);
    EXPECT_LE(r.sla_attainment, 1.0);
    EXPECT_GE(r.suspend_fraction, 0.0);
    EXPECT_LE(r.suspend_fraction, 1.0);
  }
}

TEST(BatchRunner, FixedSeedIsIdenticalAtOneAndManyThreads) {
  // The acceptance bar for the whole subsystem: the batch output is
  // bit-identical regardless of worker-thread count.
  const auto jobs = sc::cross({tiny_scenario("det", 21)},
                              {sc::Policy::DrowsyDc, sc::Policy::NeatS3}, 2);
  sc::BatchRunner serial(1);
  sc::BatchRunner wide(4);
  const auto a = serial.run(jobs);
  const auto b = wide.run(jobs);
  EXPECT_EQ(sc::to_csv(a), sc::to_csv(b));
  // Shortest round-trip doubles: equal dumps mean bit-equal results.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(ec::to_json(a[i]).dump(), ec::to_json(b[i]).dump()) << i;
  }
  // And re-running the same pool reproduces itself.
  const auto c = wide.run(jobs);
  EXPECT_EQ(sc::to_csv(b), sc::to_csv(c));
}

TEST(BatchRunner, DifferentSeedsDifferentRuns) {
  sc::BatchRunner runner(2);
  const sc::ScenarioSpec spec = tiny_scenario("seeded", 31);
  const auto results = runner.run({{spec, sc::Policy::DrowsyDc, 100},
                                   {spec, sc::Policy::DrowsyDc, 200}});
  ASSERT_EQ(results.size(), 2u);
  // Workload seeds are derived from the run seed, so the request streams
  // (and almost surely the energy figures) differ.
  EXPECT_NE(results[0].requests, results[1].requests);
}

TEST(BatchRunner, InvalidSpecInBatchRethrowsOnCaller) {
  sc::BatchRunner runner(2);
  sc::ScenarioSpec bad = tiny_scenario("bad", 1);
  bad.vms[0].count = 50;  // cannot fit 2 hosts x 2 slots
  std::vector<sc::BatchJob> jobs = sc::cross({tiny_scenario("good", 1)},
                                             {sc::Policy::DrowsyDc}, 1);
  jobs.push_back({bad, sc::Policy::DrowsyDc, 1});
  EXPECT_THROW(static_cast<void>(runner.run(jobs)), std::invalid_argument);
}

TEST(BatchRunner, CsvIsWellFormed) {
  sc::BatchRunner runner(2);
  const auto results =
      runner.run(sc::cross({tiny_scenario("emit", 51)}, {sc::Policy::DrowsyDc}, 2));
  const std::string csv = sc::to_csv(results);
  // Header + one line per run.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_EQ(csv.rfind("scenario,policy,seed,", 0), 0u);
  EXPECT_NE(csv.find("emit,drowsy-dc,"), std::string::npos);
}
