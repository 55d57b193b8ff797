// HeartbeatMonitor driven by the real simulation EventQueue (the unit
// tests elsewhere use ImmediateDispatcher; the wake fabric runs monitors
// on the shared queue, so the timing contract must hold there too).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/heartbeat.hpp"
#include "sim/event_queue.hpp"

namespace n = drowsy::net;
namespace s = drowsy::sim;
namespace u = drowsy::util;

TEST(HeartbeatOnEventQueue, FailoverFiresAtTheExactSimulatedInstant) {
  // Checks run at interval, 2*interval, ...; with no beats the third
  // check is the third consecutive miss, so failover fires at exactly
  // 3 * interval — not a tick earlier or later.
  s::EventQueue q;
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(5);
  cfg.miss_threshold = 3;
  u::SimTime fired_at = -1;
  n::HeartbeatMonitor monitor(q, cfg, [&] { fired_at = q.now(); });
  monitor.start();
  q.run_until(u::minutes(5));
  EXPECT_EQ(fired_at, 3 * u::seconds(5));
  EXPECT_TRUE(monitor.failed_over());
  EXPECT_EQ(monitor.consecutive_misses(), 3);
}

TEST(HeartbeatOnEventQueue, ABeatResetsTheMissCountdown) {
  // One beat lands between the first and second check: the countdown
  // restarts, pushing failover from 15 s out to 35 s.
  s::EventQueue q;
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(5);
  cfg.miss_threshold = 3;
  u::SimTime fired_at = -1;
  n::HeartbeatMonitor monitor(q, cfg, [&] { fired_at = q.now(); });
  monitor.start();
  q.schedule_at(u::seconds(7), [&] { monitor.beat_received(); });
  q.run_until(u::minutes(5));
  // Check at 5 s: miss 1.  Check at 10 s: beat seen, misses reset.
  // Checks at 15/20/25 s miss again, so the third consecutive miss —
  // and the failover — lands at 25 s.
  EXPECT_EQ(fired_at, u::seconds(25));
}

TEST(HeartbeatOnEventQueue, StopBeforeTheFatalCheckSuppressesFailover) {
  // stop() between the second and third check: the already-scheduled
  // check event still pops off the queue but must be a no-op (the
  // generation guard), so no failover ever fires.
  s::EventQueue q;
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(5);
  cfg.miss_threshold = 3;
  bool fired = false;
  n::HeartbeatMonitor monitor(q, cfg, [&] { fired = true; });
  monitor.start();
  q.schedule_at(u::seconds(12), [&] { monitor.stop(); });
  q.run_until(u::minutes(5));
  EXPECT_FALSE(fired);
  EXPECT_FALSE(monitor.failed_over());
  EXPECT_EQ(q.pending(), 0u);  // no orphaned check keeps rescheduling
}

TEST(HeartbeatOnEventQueue, SameInstantStopRacesResolveBySequence) {
  // stop() landing at the same instant as the fatal check resolves by
  // (time, seq) order — deterministically, both ways.
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(5);
  cfg.miss_threshold = 1;
  {
    // Armed first: start() enqueues the check before the stop event
    // exists, so at 5 s the check runs first and failover fires.
    s::EventQueue q;
    bool fired = false;
    n::HeartbeatMonitor monitor(q, cfg, [&] { fired = true; });
    monitor.start();
    q.schedule_at(u::seconds(5), [&] { monitor.stop(); });
    q.run_all();
    EXPECT_TRUE(fired);
  }
  {
    // Stop enqueued first (start() runs later, from an event): at 5 s
    // the stop's generation bump lands before the check, which becomes
    // a no-op.
    s::EventQueue q;
    bool fired = false;
    n::HeartbeatMonitor monitor(q, cfg, [&] { fired = true; });
    q.schedule_at(u::seconds(5), [&] { monitor.stop(); });
    q.schedule_at(0, [&] { monitor.start(); });
    q.run_all();
    EXPECT_FALSE(fired);
  }
}

TEST(HeartbeatOnEventQueue, RestartAfterFailoverReArms) {
  // The wake fabric restarts a monitor on recovery; a fresh start() must
  // clear failed_over and run a full new countdown.
  s::EventQueue q;
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(5);
  cfg.miss_threshold = 2;
  int fail_count = 0;
  n::HeartbeatMonitor monitor(q, cfg, [&] { ++fail_count; });
  monitor.start();
  q.run_until(u::minutes(1));
  EXPECT_EQ(fail_count, 1);
  monitor.start();
  EXPECT_FALSE(monitor.failed_over());
  q.run_until(u::minutes(2));
  EXPECT_EQ(fail_count, 2);
}

// --- MirroredPair against the beat-chain composition ------------------------
//
// MirroredPair schedules nothing while the primary lives and computes the
// failover instant in closed form.  The oracle below is the composition it
// replaced, written out: a HeartbeatMonitor on the standby fed by a
// primary that re-schedules a beat every interval.  Each case drives both
// through the same script on its own queue and requires identical logs of
// (instant, event) for the promotion and any competing events.

namespace {

class BeatChainPair {
 public:
  BeatChainPair(n::Dispatcher& dispatcher, n::HeartbeatConfig config,
                std::function<void()> on_promote)
      : dispatcher_(dispatcher),
        config_(config),
        monitor_(dispatcher, config, std::move(on_promote)) {}

  void start() {
    if (started_) return;
    started_ = true;
    monitor_.start();
    emit_beat();
  }
  void kill_primary() { alive_ = false; }
  [[nodiscard]] bool standby_promoted() const { return monitor_.failed_over(); }

 private:
  void emit_beat() {
    if (!alive_) return;
    monitor_.beat_received();
    dispatcher_.schedule_after(config_.interval, [this] { emit_beat(); },
                               drowsy::obs::EventTag::Heartbeat);
  }

  n::Dispatcher& dispatcher_;
  n::HeartbeatConfig config_;
  n::HeartbeatMonitor monitor_;
  bool alive_ = true;
  bool started_ = false;
};

using Log = std::vector<std::pair<u::SimTime, std::string>>;

struct PairParams {
  u::SimTime t0;
  int miss_threshold;
};

constexpr u::SimTime kInterval = u::seconds(5);

// Runs `script(queue, pair, log)` on a fresh queue whose clock starts at
// t0, once with the oracle and once with MirroredPair; returns both logs.
template <typename Script>
std::pair<Log, Log> run_both(const PairParams& p, Script script) {
  n::HeartbeatConfig cfg;
  cfg.interval = kInterval;
  cfg.miss_threshold = p.miss_threshold;
  auto run = [&](auto make_pair) {
    s::EventQueue q(p.t0);
    Log log;
    auto pair = make_pair(q, cfg, [&] { log.emplace_back(q.now(), "promote"); });
    script(q, *pair, log);
    q.run_until(p.t0 + u::hours(1));
    EXPECT_TRUE(pair->standby_promoted());
    return log;
  };
  Log oracle = run([](s::EventQueue& q, n::HeartbeatConfig c, std::function<void()> f) {
    return std::make_unique<BeatChainPair>(q, c, std::move(f));
  });
  Log pair = run([](s::EventQueue& q, n::HeartbeatConfig c, std::function<void()> f) {
    return std::make_unique<n::MirroredPair>(q, c, std::move(f));
  });
  return {oracle, pair};
}

class MirroredPairDifferential : public ::testing::TestWithParam<PairParams> {
 protected:
  [[nodiscard]] u::SimTime t0() const { return GetParam().t0; }
  [[nodiscard]] u::SimTime tick(double k) const {
    return t0() + static_cast<u::SimTime>(k * static_cast<double>(kInterval));
  }
  [[nodiscard]] int m() const { return GetParam().miss_threshold; }

  // Asserts identical logs, with exactly one promotion, at `expected`.
  template <typename Script>
  void expect_same(u::SimTime expected, Script script) {
    const auto [oracle, pair] = run_both(GetParam(), script);
    EXPECT_EQ(pair, oracle);
    const auto promotion = std::make_pair(expected, std::string("promote"));
    EXPECT_EQ(std::count(oracle.begin(), oracle.end(), promotion), 1);
  }
};

TEST_P(MirroredPairDifferential, KillBeforeStart) {
  // No beat is ever emitted: the first m checks all miss.
  expect_same(tick(m()), [](s::EventQueue&, auto& pair, Log&) {
    pair.kill_primary();
    pair.start();
  });
}

TEST_P(MirroredPairDifferential, KillAtStart) {
  // start() emits the beat at t0, so the check at t0 + interval sees it.
  expect_same(tick(m() + 1), [](s::EventQueue&, auto& pair, Log&) {
    pair.start();
    pair.kill_primary();
  });
}

TEST_P(MirroredPairDifferential, KillMidInterval) {
  expect_same(tick(2 + m() + 1), [this](s::EventQueue& q, auto& pair, Log&) {
    pair.start();
    q.run_until(tick(2.5));
    pair.kill_primary();
  });
}

TEST_P(MirroredPairDifferential, KillAtAGridTickAfterRunUntil) {
  // run_until(tick 4) dispatched tick 4's beat before the kill.
  expect_same(tick(4 + m() + 1), [this](s::EventQueue& q, auto& pair, Log&) {
    pair.start();
    q.run_until(tick(4));
    pair.kill_primary();
  });
}

TEST_P(MirroredPairDifferential, KillFromAnEventAtAGridTick) {
  // The killing event is queued after tick 3's beat, so tick 4's beat
  // (queued by tick 3's) dispatches first and counts.
  expect_same(tick(4 + m() + 1), [this](s::EventQueue& q, auto& pair, Log& log) {
    pair.start();
    q.run_until(tick(3));
    q.schedule_at(tick(4), [&] {
      log.emplace_back(q.now(), "kill");
      pair.kill_primary();
    });
  });
}

TEST_P(MirroredPairDifferential, RepeatedKillIsANoOp) {
  expect_same(tick(2 + m() + 1), [this](s::EventQueue& q, auto& pair, Log&) {
    pair.start();
    q.run_until(tick(2.5));
    pair.kill_primary();
    q.run_until(tick(3));
    pair.kill_primary();
    q.schedule_at(tick(3.5), [&pair] { pair.kill_primary(); });
  });
}

TEST_P(MirroredPairDifferential, CompetitorScheduledBeforeTheKillRunsFirst) {
  const u::SimTime failover = tick(2 + m() + 1);
  expect_same(failover, [&, this](s::EventQueue& q, auto& pair, Log& log) {
    pair.start();
    q.run_until(tick(2.5));
    q.schedule_at(failover, [&] { log.emplace_back(q.now(), "competitor"); });
    pair.kill_primary();
  });
}

TEST_P(MirroredPairDifferential, CompetitorScheduledAtOneIntervalBeforeRunsAfter) {
  const u::SimTime failover = tick(2 + m() + 1);
  expect_same(failover, [&](s::EventQueue& q, auto& pair, Log& log) {
    pair.start();
    q.run_until(tick(2.5));
    pair.kill_primary();
    q.run_until(failover - kInterval);
    q.schedule_at(failover, [&] { log.emplace_back(q.now(), "competitor"); });
  });
}

INSTANTIATE_TEST_SUITE_P(
    GridOrigins, MirroredPairDifferential,
    ::testing::Values(PairParams{0, 1}, PairParams{0, 3}, PairParams{u::seconds(3), 1},
                      PairParams{u::seconds(3), 3}),
    [](const ::testing::TestParamInfo<PairParams>& info) {
      return "t0_" + std::to_string(info.param.t0) + "ms_miss" +
             std::to_string(info.param.miss_threshold);
    });

}  // namespace
