#include "kern/guest_os.hpp"

#include <gtest/gtest.h>

namespace k = drowsy::kern;
namespace u = drowsy::util;

TEST(GuestOs, BootsWithSystemProcesses) {
  k::GuestOs os;
  EXPECT_GE(os.processes().size(), 5u);
  // Fresh guest: the only running processes are blacklisted system ones.
  EXPECT_FALSE(os.any_relevant_running(k::Blacklist::standard()));
  // But without the blacklist, the watchdog/kworker look active — the
  // paper's "false negatives".
  EXPECT_TRUE(os.any_relevant_running(k::Blacklist{}));
}

TEST(GuestOs, ServiceVisibleWhenRunning) {
  k::GuestOs os;
  const k::Pid svc = os.spawn_service("webserver");
  EXPECT_FALSE(os.any_relevant_running(k::Blacklist::standard()));
  os.processes().set_state(svc, k::ProcState::Running);
  EXPECT_TRUE(os.any_relevant_running(k::Blacklist::standard()));
}

TEST(GuestOs, BlockedIoDetected) {
  k::GuestOs os;
  const k::Pid svc = os.spawn_service("db");
  EXPECT_FALSE(os.any_blocked_on_io());
  os.processes().set_state(svc, k::ProcState::BlockedIo);
  EXPECT_TRUE(os.any_blocked_on_io());
}

TEST(GuestOs, SessionsCount) {
  k::GuestOs os;
  const k::Pid svc = os.spawn_service("sshd");
  EXPECT_EQ(os.total_open_sessions(), 0);
  os.open_session(svc);
  os.open_session(svc);
  EXPECT_EQ(os.total_open_sessions(), 2);
  os.close_session(svc);
  EXPECT_EQ(os.total_open_sessions(), 1);
}

TEST(GuestOs, RecordHourComputesActivity) {
  k::GuestOs os;
  os.record_hour(0.5);
  EXPECT_DOUBLE_EQ(os.last_hour_activity(), 0.5);
}

TEST(GuestOs, RecordHourFiltersNoise) {
  k::GuestOs os;
  // Activity below the noise floor counts as idle (paper §III-C: "very
  // short scheduling quanta — noise — are filtered out").
  os.record_hour(0.004);
  EXPECT_DOUBLE_EQ(os.last_hour_activity(), 0.0);
  EXPECT_GT(os.last_hour_ledger().noise_quanta, 0u);
  os.record_hour(0.006);
  EXPECT_GT(os.last_hour_activity(), 0.0);
}

TEST(GuestOs, RecordHourFullyIdle) {
  k::GuestOs os;
  os.record_hour(0.0);
  EXPECT_DOUBLE_EQ(os.last_hour_activity(), 0.0);
  EXPECT_EQ(os.last_hour_ledger().used_quanta, 0u);
}

TEST(GuestOs, TimerServiceFiresAndRearms) {
  k::GuestOs os;
  int fires = 0;
  // A service that wants to run every hour on the hour.
  const k::Pid pid = os.add_timer_service(
      "backup", /*now=*/0,
      [](u::SimTime now) { return u::next_hour(now); },
      [&fires](u::SimTime) { ++fires; });
  EXPECT_EQ(os.timers().size(), 1u);

  os.fire_due_timers(u::hours(1.0));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(os.processes().find(pid)->state, k::ProcState::Running);
  // Re-armed for the next hour.
  EXPECT_EQ(os.timers().size(), 1u);

  os.processes().set_state(pid, k::ProcState::Sleeping);
  os.fire_due_timers(u::hours(2.0));
  EXPECT_EQ(fires, 2);
}

TEST(GuestOs, TimerServiceCanStop) {
  k::GuestOs os;
  os.add_timer_service(
      "oneshot", 0, [](u::SimTime now) { return now == 0 ? u::hours(1.0) : u::kNever; });
  EXPECT_EQ(os.timers().size(), 1u);
  os.fire_due_timers(u::hours(1.0));
  EXPECT_TRUE(os.timers().empty());  // chose kNever: not re-armed
}

TEST(GuestOs, EarliestRelevantTimerFiltersBlacklisted) {
  k::GuestOs os;
  const k::Blacklist bl = k::Blacklist::standard();
  // A blacklisted monitoring process arms an early timer.
  const k::Pid mon = os.processes().spawn("monitoring-agent2");
  (void)mon;
  // No relevant timers yet.
  EXPECT_EQ(os.earliest_relevant_timer(bl), u::kNever);

  os.add_timer_service("backup", 0, [](u::SimTime) { return u::hours(5.0); });
  EXPECT_EQ(os.earliest_relevant_timer(bl), u::hours(5.0));
}

TEST(GuestOs, EarliestRelevantTimerSkipsMonitoring) {
  k::GuestOs os;
  const k::Blacklist bl = k::Blacklist::standard();
  // The monitoring agent polls every minute — it must NOT set the waking
  // date (paper §V-B: "we filter the timers according to the processes
  // that registered them").
  os.add_timer_service("monitoring-agent", 0, [](u::SimTime) { return u::minutes(1); });
  os.add_timer_service("backup", 0, [](u::SimTime) { return u::hours(5.0); });
  EXPECT_EQ(os.earliest_relevant_timer(bl), u::hours(5.0));
  // Unfiltered, the monitoring timer is the earliest.
  ASSERT_NE(os.timers().peek(), nullptr);
  EXPECT_EQ(os.timers().peek()->expiry, u::minutes(1));
}
