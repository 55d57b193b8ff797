#include "net/heartbeat.hpp"

#include <gtest/gtest.h>

#include "reference_heartbeat_monitor.hpp"
#include "sim/event_queue.hpp"

namespace n = drowsy::net;
namespace s = drowsy::sim;
namespace u = drowsy::util;
using drowsy::testing::HeartbeatMonitor;

TEST(Heartbeat, NoFailoverWhileBeatsArrive) {
  s::EventQueue q;
  bool failed = false;
  n::HeartbeatConfig cfg;
  HeartbeatMonitor monitor(q, cfg, [&failed] { failed = true; });
  monitor.start();
  // Feed beats slightly faster than the check interval for 30 seconds.
  for (int i = 1; i <= 40; ++i) {
    q.schedule_at(i * cfg.interval * 9 / 10, [&monitor] { monitor.beat_received(); });
  }
  q.run_until(u::seconds(30));
  EXPECT_FALSE(failed);
  EXPECT_FALSE(monitor.failed_over());
}

TEST(Heartbeat, FailoverAfterConsecutiveMisses) {
  s::EventQueue q;
  bool failed = false;
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(1);
  cfg.miss_threshold = 3;
  HeartbeatMonitor monitor(q, cfg, [&failed] { failed = true; });
  monitor.start();
  q.run_until(u::seconds(10));
  EXPECT_TRUE(failed);
  EXPECT_TRUE(monitor.failed_over());
  EXPECT_GE(monitor.consecutive_misses(), 3);
}

TEST(Heartbeat, StopPreventsFailover) {
  s::EventQueue q;
  bool failed = false;
  HeartbeatMonitor monitor(q, n::HeartbeatConfig{}, [&failed] { failed = true; });
  monitor.start();
  monitor.stop();
  q.run_until(u::seconds(30));
  EXPECT_FALSE(failed);
}

TEST(Heartbeat, SingleMissedBeatTolerated) {
  s::EventQueue q;
  bool failed = false;
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(1);
  cfg.miss_threshold = 3;
  HeartbeatMonitor monitor(q, cfg, [&failed] { failed = true; });
  monitor.start();
  // Beats at 0.5s, then a gap (miss at checks 2,3 would trigger at 3
  // consecutive), then resume beats: no failover.
  q.schedule_at(u::seconds(0.5), [&] { monitor.beat_received(); });
  q.schedule_at(u::seconds(2.5), [&] { monitor.beat_received(); });
  q.schedule_at(u::seconds(3.5), [&] { monitor.beat_received(); });
  q.schedule_at(u::seconds(4.5), [&] { monitor.beat_received(); });
  q.run_until(u::seconds(5));
  EXPECT_FALSE(failed);
}

TEST(MirroredPair, PromotesStandbyWhenPrimaryDies) {
  s::EventQueue q;
  bool promoted = false;
  n::HeartbeatConfig cfg;
  cfg.interval = u::seconds(1);
  cfg.miss_threshold = 3;
  n::MirroredPair pair(q, cfg, [&promoted] { promoted = true; });
  pair.start();
  q.run_until(u::seconds(10));
  EXPECT_FALSE(promoted) << "healthy primary must not be replaced";

  pair.kill_primary();
  q.run_until(u::seconds(20));
  EXPECT_TRUE(promoted);
  EXPECT_TRUE(pair.standby_promoted());
}

TEST(MirroredPair, HealthyPrimaryRunsIndefinitely) {
  // A live primary costs the event queue nothing: no beat, no check.
  s::EventQueue q;
  bool promoted = false;
  n::MirroredPair pair(q, n::HeartbeatConfig{}, [&promoted] { promoted = true; });
  pair.start();
  q.run_until(u::days(1));
  EXPECT_FALSE(promoted);
  EXPECT_TRUE(pair.primary_alive());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.executed(), 0u);
}
