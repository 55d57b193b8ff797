// Run probes: pure observation (results byte-identical with and without
// a probe), trace byte-identity across batch thread counts, and event
// profiles that account for every dispatched event.
#include "scenario/probes.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "expctl/json.hpp"
#include "expctl/runs_io.hpp"
#include "scenario/batch_runner.hpp"

namespace ec = drowsy::expctl;
namespace fs = std::filesystem;
namespace obs = drowsy::obs;
namespace sc = drowsy::scenario;

namespace {

/// Same shape as the batch-runner tests: 2 hosts, 4 VMs, one day.
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

fs::path fresh_dir(const std::string& leaf) {
  const fs::path dir = fs::temp_directory_path() / "drowsy_probe_test" / leaf;
  fs::remove_all(dir);
  return dir;
}

/// Every file in `dir` by name, with its full byte content.
std::map<std::string, std::string> slurp_dir(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

}  // namespace

TEST(Probes, TraceFileNameEmbedsScenarioPolicySeedAndSpecHash) {
  const sc::ScenarioSpec spec = tiny_scenario("det", 21);
  const std::string name = sc::trace_file_name(spec, sc::Policy::DrowsyDc, 21);
  EXPECT_EQ(name.rfind("det-drowsy-dc-21-", 0), 0u) << name;
  EXPECT_NE(name.find(".trace.json"), std::string::npos);

  // Sweep-axis variants that share (scenario, policy, seed) still get
  // distinct files via the spec hash.
  sc::ScenarioSpec variant = spec;
  variant.request_rate_per_hour = 60.0;
  EXPECT_NE(sc::trace_file_name(variant, sc::Policy::DrowsyDc, 21), name);
}

TEST(Probes, TimelineTraceIsByteIdenticalAtOneAndFourThreads) {
  // The acceptance bar for --trace-out: timelines are stamped in sim
  // time only, so the batch thread schedule cannot leak into the bytes.
  const auto jobs = sc::cross({tiny_scenario("det", 21)},
                              {sc::Policy::DrowsyDc, sc::Policy::NeatS3}, 2);
  const fs::path dir1 = fresh_dir("serial");
  const fs::path dir4 = fresh_dir("wide");
  const sc::BatchRunner::CompletionCallback on_complete =
      [](std::size_t, const sc::RunResult&, double) {};

  sc::BatchRunner serial(1);
  sc::BatchRunner wide(4);
  const auto a = serial.run(jobs, on_complete, sc::timeline_probe(dir1.string()));
  const auto b = wide.run(jobs, on_complete, sc::timeline_probe(dir4.string()));
  EXPECT_EQ(sc::to_csv(a), sc::to_csv(b));

  const auto files1 = slurp_dir(dir1);
  const auto files4 = slurp_dir(dir4);
  EXPECT_EQ(files1.size(), jobs.size());
  ASSERT_EQ(files1.size(), files4.size());
  for (const auto& [name, bytes] : files1) {
    const auto it = files4.find(name);
    ASSERT_NE(it, files4.end()) << name << " missing at 4 threads";
    EXPECT_EQ(bytes, it->second) << name << " differs across thread counts";
  }

  // Each file is a loadable Chrome trace with at least one power event.
  for (const auto& [name, bytes] : files1) {
    const ec::Json doc = ec::Json::parse(bytes);
    EXPECT_GT(doc.at("traceEvents").size(), 0u) << name;
    EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms") << name;
  }
  fs::remove_all(fs::temp_directory_path() / "drowsy_probe_test");
}

TEST(Probes, ObservationNeverPerturbsTheSimulation) {
  const sc::ScenarioSpec spec = tiny_scenario("pure", 7);
  const sc::RunResult bare =
      sc::run_one(spec, sc::Policy::DrowsyDc, spec.seed);

  const fs::path dir = fresh_dir("pure");
  obs::EventProfile profile;
  const sc::RunProbe probe = sc::combine_probes(
      {sc::timeline_probe(dir.string()),
       sc::profile_probe(
           [&profile](const obs::EventProfile& p) { profile.merge(p); })});
  const sc::RunResult observed =
      sc::run_one(spec, sc::Policy::DrowsyDc, spec.seed, nullptr, &probe);

  EXPECT_EQ(sc::to_csv({bare}), sc::to_csv({observed}));
  EXPECT_EQ(ec::to_json(bare).dump(), ec::to_json(observed).dump());

  // The composite probe delivered both halves: a trace file on disk and
  // a non-empty profile with the expected event classes.
  EXPECT_TRUE(fs::exists(dir / sc::trace_file_name(spec, sc::Policy::DrowsyDc,
                                                   spec.seed)));
  EXPECT_GT(profile.total_events(), 0u);
  EXPECT_GT(profile.events(obs::EventTag::Request), 0u);
  EXPECT_GT(profile.events(obs::EventTag::SuspendCheck), 0u);
  fs::remove_all(fs::temp_directory_path() / "drowsy_probe_test");
}

TEST(Probes, ProfileProbeAggregatesAcrossABatch) {
  const auto jobs =
      sc::cross({tiny_scenario("agg", 3)}, {sc::Policy::DrowsyDc}, 3);
  obs::EventProfile aggregate;
  std::mutex mutex;
  const sc::RunProbe probe =
      sc::profile_probe([&aggregate, &mutex](const obs::EventProfile& p) {
        const std::lock_guard<std::mutex> lock(mutex);
        aggregate.merge(p);
      });
  sc::BatchRunner runner(4);
  const auto results = runner.run(
      jobs, [](std::size_t, const sc::RunResult&, double) {}, probe);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_GT(aggregate.total_events(), 0u);
  // Tag counts sum to the total — the invariant the bench breakdown and
  // worker snapshots report.
  std::uint64_t sum = 0;
  for (const obs::EventTag tag : obs::all_event_tags()) {
    sum += aggregate.events(tag);
  }
  EXPECT_EQ(sum, aggregate.total_events());
}
