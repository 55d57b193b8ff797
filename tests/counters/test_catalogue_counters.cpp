// Exact work counters of the paper catalogue.
//
// Runs sweeps/paper_catalogue.json (165 runs) at one thread with a probe
// on every run and pins the sums of the deterministic counters: events
// dispatched per tag, the most events any run keeps pending (the event
// queue's slab high-water mark, which its binary heap's depth rests on),
// and every suspend outcome apart from `checks` and
// `blocked_by_running`, which count the checks a parked chain skips and
// fall whenever parking improves (core/suspend_module.hpp).  The runs are
// deterministic, so a change to any number here is either a regression or
// a re-baseline: a change that moves one updates it in the same commit
// and says why.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "expctl/spec_io.hpp"
#include "obs/event_profile.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"

namespace c = drowsy::core;
namespace ec = drowsy::expctl;
namespace obs = drowsy::obs;
namespace sc = drowsy::scenario;

namespace {

struct Totals {
  obs::EventProfile profile;
  std::uint64_t events = 0;
  std::uint64_t max_pending = 0;
  c::SuspendStats suspend{};
};

/// Profiles one run's queue and folds its counters into `totals`.
class CountingObserver final : public sc::RunObserver {
 public:
  CountingObserver(sc::ScenarioRun& run, Totals& totals, std::mutex& mutex)
      : run_(run), totals_(totals), mutex_(mutex) {
    run_.queue.set_profile(&profile_);
  }
  ~CountingObserver() override { run_.queue.set_profile(nullptr); }

  void on_finished(const sc::RunResult& /*result*/) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    totals_.profile.merge(profile_);
    totals_.events += run_.queue.executed();
    const drowsy::sim::EventQueue::CoreStats core = run_.queue.core_stats();
    totals_.max_pending = std::max(totals_.max_pending, core.slab_slots);
    for (const auto& host : run_.cluster.hosts()) {
      const c::SuspendStats& s = run_.controller->suspend_module(host->id()).stats();
      totals_.suspend.suspends += s.suspends;
      totals_.suspend.blocked_by_grace += s.blocked_by_grace;
      totals_.suspend.blocked_by_io += s.blocked_by_io;
      totals_.suspend.blocked_by_sessions += s.blocked_by_sessions;
      totals_.suspend.blocked_by_imminent_timer += s.blocked_by_imminent_timer;
    }
  }

 private:
  sc::ScenarioRun& run_;
  Totals& totals_;
  std::mutex& mutex_;
  obs::EventProfile profile_;
};

}  // namespace

TEST(CatalogueCounters, MatchTheBaseline) {
  ::setenv("DROWSY_TRACE_ROOT", DROWSY_SOURCE_DIR, 0);
  const std::string path = std::string(DROWSY_SOURCE_DIR) + "/sweeps/paper_catalogue.json";
  const ec::SweepSpec sweep = ec::sweep_from_json(ec::Json::parse(ec::read_file(path)),
                                                  sc::ScenarioRegistry::builtin());
  const std::vector<sc::BatchJob> jobs = ec::expand(sweep);
  ASSERT_EQ(jobs.size(), 165u);

  Totals totals;
  std::mutex mutex;
  const sc::RunProbe probe = [&totals, &mutex](const sc::ScenarioSpec&, sc::Policy,
                                               std::uint64_t, sc::ScenarioRun& run) {
    return std::make_unique<CountingObserver>(run, totals, mutex);
  };
  sc::BatchRunner runner(1);
  (void)runner.run(jobs, {}, probe);

  EXPECT_EQ(totals.profile.events(obs::EventTag::Other), 0u);
  EXPECT_EQ(totals.profile.events(obs::EventTag::Hrtimer), 0u);
  EXPECT_EQ(totals.profile.events(obs::EventTag::SuspendCheck), 27'285u);
  EXPECT_EQ(totals.profile.events(obs::EventTag::Request), 2'713'308u);
  EXPECT_EQ(totals.profile.events(obs::EventTag::Wake), 39'041u);
  EXPECT_EQ(totals.profile.events(obs::EventTag::Heartbeat), 0u);
  EXPECT_EQ(totals.profile.events(obs::EventTag::NetsimFrame), 2'731'326u);
  EXPECT_EQ(totals.events, 5'510'960u);
  // A change that deepens the pending set re-baselines this with a
  // reason: the event queue is a plain binary heap because it is small.
  EXPECT_EQ(totals.max_pending, 13u);

  EXPECT_EQ(totals.suspend.suspends, 19'840u);
  EXPECT_EQ(totals.suspend.blocked_by_grace, 2'142u);
  EXPECT_EQ(totals.suspend.blocked_by_io, 0u);
  EXPECT_EQ(totals.suspend.blocked_by_sessions, 0u);
  EXPECT_EQ(totals.suspend.blocked_by_imminent_timer, 0u);
}
