#include "scenario/trace_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <fstream>
#include <latch>
#include <random>
#include <thread>
#include <typeinfo>
#include <vector>

#include "expctl/runs_io.hpp"
#include "scenario/batch_runner.hpp"

namespace sc = drowsy::scenario;

namespace {

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f) << path;
  f << bytes;
}

sc::ScenarioSpec tiny_scenario(std::uint64_t seed) {
  sc::ScenarioSpec s;
  s.name = "cache-tiny";
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

TEST(TraceCache, ReturnsExactlyWhatMaterializeWould) {
  sc::TraceCache cache;
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::OfficeHours;
  spec.noise = 0.05;
  const auto cached = cache.get(spec, 99);
  const auto direct = sc::materialize(spec, 99);
  EXPECT_EQ(cached->hours(), direct.hours());
  EXPECT_EQ(cached->name(), direct.name());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TraceCache, HitsOnRepeatAndPinnedSeedNormalization) {
  sc::TraceCache cache;
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::DailyBackup;
  const auto first = cache.get(spec, 7);
  const auto again = cache.get(spec, 7);
  EXPECT_EQ(first.get(), again.get());  // same shared object, not a rebuild
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // A pinned seed equal to the fallback collides onto the same entry:
  // materialize() would produce the identical trace either way.
  sc::TraceSpec pinned = spec;
  pinned.seed = 7;
  EXPECT_EQ(cache.get(pinned, 123).get(), first.get());
  EXPECT_EQ(cache.hits(), 2u);

  // Different fallback seed is a distinct trace.
  EXPECT_NE(cache.get(spec, 8).get(), first.get());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TraceCache, DistinguishesEveryKnob) {
  sc::TraceCache cache;
  sc::TraceSpec base;
  base.kind = sc::TraceKind::DutyCycle;
  static_cast<void>(cache.get(base, 1));
  sc::TraceSpec variant = base;
  variant.span_hours = 7;
  static_cast<void>(cache.get(variant, 1));
  variant.hour = 3;
  static_cast<void>(cache.get(variant, 1));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TraceCache, CachedBuildIsBitIdenticalToUncached) {
  // The determinism contract: routing build() through the cache must not
  // change a single metric.
  const sc::ScenarioSpec spec = tiny_scenario(17);
  sc::TraceCache cache;
  const sc::RunResult cold = sc::run_one(spec, sc::Policy::DrowsyDc, 17, nullptr);
  const sc::RunResult warm = sc::run_one(spec, sc::Policy::DrowsyDc, 17, &cache);
  const sc::RunResult reused = sc::run_one(spec, sc::Policy::DrowsyDc, 17, &cache);
  EXPECT_GT(cache.hits(), 0u);  // second run fed entirely from the cache
  const auto csv = [](const sc::RunResult& r) { return sc::to_csv({r}); };
  EXPECT_EQ(csv(cold), csv(warm));
  EXPECT_EQ(csv(cold), csv(reused));
}

TEST(TraceCache, BatchRunnerSharesTracesAcrossPolicyArms) {
  // 1 scenario x 3 policies x 2 seeds: each of the 4 per-seed traces is
  // materialized once and reused by the other two policy arms.
  sc::BatchRunner runner(2);
  const auto jobs = sc::cross({tiny_scenario(21)},
                              {sc::Policy::DrowsyDc, sc::Policy::NeatS3, sc::Policy::Oasis}, 2);
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(runner.last_trace_misses(), 8u);  // 4 VMs x 2 seeds
  EXPECT_EQ(runner.last_trace_hits(), 16u);   // reused by 2 further policies
}

TEST(TraceCache, FileReplayIgnoresSeedsAndKeysByContent) {
  const std::string path = ::testing::TempDir() + "/cache_replay.csv";
  write_file(path, "a,b\n0.1,0.9\n0.2,0.8\n");
  sc::TraceCache cache;
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::FileReplay;
  spec.path = path;

  // Distinct fallback seeds (one per VM in a group) must all hit the one
  // entry: replay output is seed-independent.
  const auto first = cache.get(spec, 1);
  EXPECT_EQ(cache.get(spec, 2).get(), first.get());
  EXPECT_EQ(cache.get(spec, 3).get(), first.get());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);

  // select / downsample are part of the identity.
  sc::TraceSpec named = spec;
  named.select = "b";
  EXPECT_NE(cache.get(named, 1).get(), first.get());
  sc::TraceSpec pooled = spec;
  pooled.downsample = 2;
  EXPECT_NE(cache.get(pooled, 1).get(), first.get());
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(TraceCache, SamePathChangedBytesIsAMiss) {
  const std::string path = ::testing::TempDir() + "/cache_replay_edit.csv";
  write_file(path, "a\n0.1\n0.2\n");
  sc::TraceCache cache;
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::FileReplay;
  spec.path = path;

  const auto before = cache.get(spec, 1);
  EXPECT_EQ(cache.misses(), 1u);
  write_file(path, "a\n0.5\n0.6\n");
  const auto after = cache.get(spec, 1);
  EXPECT_EQ(cache.misses(), 2u) << "content hash must key the entry, not the path";
  EXPECT_NE(after.get(), before.get());
  EXPECT_DOUBLE_EQ(after->hours()[0], 0.5);
  EXPECT_DOUBLE_EQ(before->hours()[0], 0.1) << "earlier handles keep the bytes they saw";

  // Restoring the original bytes hits the original entry again.
  write_file(path, "a\n0.1\n0.2\n");
  EXPECT_EQ(cache.get(spec, 1).get(), before.get());
  EXPECT_EQ(cache.hits(), 1u);
}

namespace {

using TracePtr = std::shared_ptr<const drowsy::trace::ActivityTrace>;

/// `get(spec, fallback)` from 8 threads released together.
std::vector<TracePtr> get_from_8_threads(sc::TraceCache& cache, const sc::TraceSpec& spec,
                                         std::uint64_t fallback) {
  std::vector<TracePtr> results(8);
  std::latch start(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] = cache.get(spec, fallback);
    });
  }
  for (auto& thread : threads) thread.join();
  return results;
}

/// The (workload, fallback seed) of the only VM of `spec`.
std::pair<sc::TraceSpec, std::uint64_t> only_vm(const sc::ScenarioSpec& spec,
                                                std::uint64_t seed) {
  std::pair<sc::TraceSpec, std::uint64_t> vm;
  int count = 0;
  sc::for_each_vm(spec, seed,
                  [&](const sc::VmGroup&, int, const sc::TraceSpec& w, std::uint64_t f) {
                    vm = {w, f};
                    ++count;
                  });
  EXPECT_EQ(count, 1);
  return vm;
}

/// The type and message of what `fn` throws; empty when it returns.
template <typename Fn>
std::string thrown_by(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return {};
}

}  // namespace

TEST(TraceCache, ConcurrentGetsBuildOnce) {
  sc::TraceCache cache;
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::GoogleLlmu;
  const std::vector<TracePtr> results = get_from_8_threads(cache, spec, 5);
  ASSERT_EQ(cache.size(), 1u);  // unplanned: kept
  for (const auto& r : results) EXPECT_EQ(r.get(), results[0].get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 7u);
}

TEST(TraceCache, ConcurrentPlannedGetsBuildOnceAndDrop) {
  sc::ScenarioSpec spec = tiny_scenario(5);
  spec.vms.resize(1);
  spec.vms[0].count = 1;
  sc::TraceCache cache;
  for (int job = 0; job < 8; ++job) ASSERT_EQ(cache.plan(spec, 5).size(), 1u);
  const auto [workload, fallback] = only_vm(spec, 5);
  const std::vector<TracePtr> results = get_from_8_threads(cache, workload, fallback);
  ASSERT_NE(results[0], nullptr);
  for (const auto& r : results) EXPECT_EQ(r.get(), results[0].get());
  EXPECT_EQ(results[0]->hours(), sc::materialize(workload, fallback).hours());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 7u);
  EXPECT_EQ(cache.size(), 0u) << "the eighth planned get drops the entry";
}

TEST(TraceCache, PlannedEntriesAreDroppedAfterTheirLastGet) {
  const sc::ScenarioSpec spec = tiny_scenario(21);
  sc::TraceCache planned;
  sc::TraceCache unplanned;
  const std::vector<sc::Policy> arms = {sc::Policy::DrowsyDc, sc::Policy::NeatS3};
  for (std::size_t arm = 0; arm < arms.size(); ++arm) {
    EXPECT_EQ(planned.plan(spec, 21).size(), 4u);  // one key per VM
  }
  std::vector<std::unique_ptr<sc::ScenarioRun>> runs;
  for (const sc::Policy policy : arms) {
    runs.push_back(sc::build(spec, policy, 21, &planned));
    static_cast<void>(sc::build(spec, policy, 21, &unplanned));
  }
  EXPECT_EQ(planned.size(), 0u);
  EXPECT_EQ(unplanned.size(), 4u);
  EXPECT_EQ(planned.misses(), unplanned.misses());
  EXPECT_EQ(planned.hits(), unplanned.hits());
  EXPECT_EQ(planned.misses(), 4u);
  EXPECT_EQ(planned.hits(), 4u);

  // The runs own their traces after the cache let go; both arms share
  // one object per VM.
  const auto& a = runs[0]->cluster.vms();
  const auto& b = runs[1]->cluster.vms();
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(&a[v]->workload(), &b[v]->workload()) << v;
  }
  const auto fresh = sc::build(spec, sc::Policy::DrowsyDc, 21);
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a[v]->workload().hours(), fresh->cluster.vms()[v]->workload().hours()) << v;
  }
}

TEST(TraceCache, UnplannedGetsKeepTheirEntry) {
  const sc::ScenarioSpec spec = tiny_scenario(8);
  sc::TraceCache cache;
  ASSERT_EQ(cache.plan(spec, 8).size(), 4u);

  sc::TraceSpec other;
  other.kind = sc::TraceKind::OfficeHours;
  const TracePtr first = cache.get(other, 1);
  EXPECT_EQ(cache.get(other, 1).get(), first.get());
  EXPECT_EQ(cache.size(), 1u);

  // A build past the planned count gets unplanned: its entries stay.
  static_cast<void>(sc::build(spec, sc::Policy::DrowsyDc, 8, &cache));
  EXPECT_EQ(cache.size(), 1u);
  static_cast<void>(sc::build(spec, sc::Policy::DrowsyDc, 8, &cache));
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.misses(), 9u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(TraceCache, FailedBuildReachesEveryWaiterAndIsErased) {
  const std::string path = ::testing::TempDir() + "/cache_replay_nocol.csv";
  write_file(path, "a\n0.1\n0.2\n");
  sc::TraceCache cache;
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::FileReplay;
  spec.path = path;
  spec.select = "no-such-column";
  const std::string expected = thrown_by([&] { static_cast<void>(sc::materialize(spec, 1)); });
  ASSERT_FALSE(expected.empty());

  // The waiters share one exception object; they only keep it here, and
  // its message is read after the join.
  std::vector<std::exception_ptr> errors(8);
  std::latch start(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < errors.size(); ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      try {
        static_cast<void>(cache.get(spec, 1));
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const std::exception_ptr& e : errors) {
    ASSERT_TRUE(e);
    EXPECT_EQ(thrown_by([&] { std::rethrow_exception(e); }), expected);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(thrown_by([&] { static_cast<void>(cache.get(spec, 1)); }), expected)
      << "a failed build leaves no entry behind";
}

TEST(TraceCache, VmWithoutAKeyIsUnplannedAndFailsAsWithoutAPlan) {
  sc::ScenarioSpec spec = tiny_scenario(13);
  spec.hosts = 3;  // room for a fifth VM
  spec.vms.push_back({.name_prefix = "replay",
                      .count = 1,
                      .workload = {.kind = sc::TraceKind::FileReplay,
                                   .path = ::testing::TempDir() + "/no_such_trace.csv"}});
  sc::TraceCache cache;
  EXPECT_EQ(cache.plan(spec, 13).size(), 4u) << "the replay VM has no key";

  const std::string uncached =
      thrown_by([&] { static_cast<void>(sc::run_one(spec, sc::Policy::DrowsyDc, 13)); });
  ASSERT_FALSE(uncached.empty());
  sc::BatchRunner runner(2);
  const auto jobs = sc::cross({spec}, {sc::Policy::DrowsyDc, sc::Policy::NeatS3}, 1);
  EXPECT_EQ(thrown_by([&] { static_cast<void>(runner.run(jobs)); }), uncached);
}

TEST(TraceCache, ShuffledBatchIsIdenticalAtOneAndFourThreads) {
  sc::ScenarioSpec other = tiny_scenario(33);
  other.name = "cache-other";
  other.vms[0].workload.seed = 4;  // pinned: shared by every replicate
  std::vector<sc::BatchJob> jobs = sc::cross(
      {tiny_scenario(31), other}, {sc::Policy::DrowsyDc, sc::Policy::NeatS3, sc::Policy::Oasis},
      3);
  std::shuffle(jobs.begin(), jobs.end(), std::mt19937(2024));

  sc::BatchRunner serial(1);
  sc::BatchRunner wide(4);
  const auto a = serial.run(jobs);
  const auto b = wide.run(jobs);
  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(a[i].scenario, jobs[i].spec.name) << i;
    EXPECT_EQ(a[i].seed, jobs[i].resolved_seed()) << i;
    EXPECT_EQ(drowsy::expctl::to_json(a[i]).dump(), drowsy::expctl::to_json(b[i]).dump()) << i;
  }
  EXPECT_EQ(serial.last_trace_misses(), wide.last_trace_misses());
  EXPECT_EQ(serial.last_trace_hits(), wide.last_trace_hits());
  // 4 VMs x 3 seeds x 2 scenarios, less the 4 repeats of the two pinned
  // traces; every other get of the 18 jobs' 72 is a hit.
  EXPECT_EQ(serial.last_trace_misses(), 20u);
  EXPECT_EQ(serial.last_trace_hits(), 52u);
}
