#include "kern/process.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "reference_process_table.hpp"

namespace k = drowsy::kern;

TEST(Blacklist, ExactMatch) {
  k::Blacklist b;
  b.add_exact("watchdog");
  EXPECT_TRUE(b.contains("watchdog"));
  EXPECT_FALSE(b.contains("watchdogs"));
  EXPECT_FALSE(b.contains("watch"));
}

TEST(Blacklist, PrefixMatch) {
  k::Blacklist b;
  b.add_prefix("kworker");
  EXPECT_TRUE(b.contains("kworker/0:1"));
  EXPECT_TRUE(b.contains("kworker"));
  EXPECT_FALSE(b.contains("worker"));
}

TEST(Blacklist, StandardRulesCoverKernelAndMonitoring) {
  const k::Blacklist b = k::Blacklist::standard();
  EXPECT_TRUE(b.contains("kworker/3:2"));
  EXPECT_TRUE(b.contains("ksoftirqd/0"));
  EXPECT_TRUE(b.contains("rcu_sched"));
  EXPECT_TRUE(b.contains("watchdog"));
  EXPECT_TRUE(b.contains("monitoring-agent"));
  EXPECT_TRUE(b.contains("drowsy-suspendd"));
  EXPECT_FALSE(b.contains("webserver"));
  EXPECT_FALSE(b.contains("backup-service"));
  EXPECT_GE(b.rule_count(), 5u);
}

TEST(ProcessTable, SpawnAssignsUniquePids) {
  k::ProcessTable t;
  const k::Pid a = t.spawn("a");
  const k::Pid b = t.spawn("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.size(), 2u);
}

TEST(ProcessTable, FindAndState) {
  k::ProcessTable t;
  const k::Pid pid = t.spawn("svc", k::ProcState::Sleeping);
  ASSERT_NE(t.find(pid), nullptr);
  EXPECT_EQ(t.find(pid)->state, k::ProcState::Sleeping);
  t.set_state(pid, k::ProcState::Running);
  EXPECT_EQ(t.find(pid)->state, k::ProcState::Running);
  EXPECT_EQ(t.find(9999), nullptr);
}

TEST(ProcessTable, Reap) {
  k::ProcessTable t;
  const k::Pid pid = t.spawn("gone");
  EXPECT_TRUE(t.reap(pid));
  EXPECT_FALSE(t.reap(pid));
  EXPECT_EQ(t.find(pid), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(ProcessTable, CountIf) {
  k::ProcessTable t;
  t.spawn("a", k::ProcState::Running);
  t.spawn("b", k::ProcState::Running);
  t.spawn("c", k::ProcState::BlockedIo);
  EXPECT_EQ(t.count_if([](const k::Process& p) { return p.state == k::ProcState::Running; }),
            2u);
  EXPECT_EQ(
      t.count_if([](const k::Process& p) { return p.state == k::ProcState::BlockedIo; }),
      1u);
}

TEST(ProcessTable, ForEachVisitsAll) {
  k::ProcessTable t;
  t.spawn("x");
  t.spawn("y");
  int visits = 0;
  t.for_each([&visits](const k::Process&) { ++visits; });
  EXPECT_EQ(visits, 2);
}

TEST(ProcessTable, ReapLeavesNoTrace) {
  k::ProcessTable t;
  const k::Pid a = t.spawn("a", k::ProcState::Running);
  const k::Pid b = t.spawn("b", k::ProcState::Running);
  const k::Pid c = t.spawn("c", k::ProcState::Running);
  t.find(b)->open_sessions = 3;
  ASSERT_TRUE(t.reap(b));
  EXPECT_EQ(t.find(b), nullptr);
  EXPECT_EQ(t.size(), 2u);
  std::vector<k::Pid> seen;
  t.for_each([&seen](const k::Process& p) { seen.push_back(p.pid); });
  EXPECT_EQ(seen, (std::vector<k::Pid>{a, c}));
  EXPECT_EQ(t.count_if([](const k::Process& p) { return p.state == k::ProcState::Running; }),
            2u);
  EXPECT_FALSE(t.any_of([](const k::Process& p) { return p.name == "b"; }));
  EXPECT_FALSE(t.any_of([](const k::Process& p) { return p.open_sessions > 0; }));
  EXPECT_FALSE(t.any_of([](const k::Process& p) { return p.pid == 0; }));
}

TEST(ProcessTable, UnknownPidsAreNotFound) {
  k::ProcessTable t;
  t.spawn("a");
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(t.find(-1), nullptr);
  EXPECT_EQ(t.find(2), nullptr);
  EXPECT_FALSE(t.reap(0));
  EXPECT_FALSE(t.reap(2));
  EXPECT_EQ(t.size(), 1u);
}

TEST(ProcessTable, PidsAreNeverReused) {
  k::ProcessTable t;
  const k::Pid a = t.spawn("a");
  ASSERT_TRUE(t.reap(a));
  const k::Pid b = t.spawn("b");
  EXPECT_GT(b, a);
  EXPECT_EQ(t.find(a), nullptr);
  ASSERT_NE(t.find(b), nullptr);
  EXPECT_EQ(t.find(b)->name, "b");
  EXPECT_EQ(t.find(b)->pid, b);
}

TEST(ProcessTable, VisitsInPidOrder) {
  k::ProcessTable t;
  std::vector<k::Pid> spawned;
  for (int i = 0; i < 50; ++i) spawned.push_back(t.spawn("p" + std::to_string(i)));
  for (std::size_t i = 0; i < spawned.size(); i += 3) ASSERT_TRUE(t.reap(spawned[i]));
  std::vector<k::Pid> seen;
  t.for_each([&seen](const k::Process& p) { seen.push_back(p.pid); });
  ASSERT_EQ(seen.size(), t.size());
  for (std::size_t i = 1; i < seen.size(); ++i) EXPECT_LT(seen[i - 1], seen[i]);
  // any_of stops at the first match in that order.
  k::Pid first = 0;
  EXPECT_TRUE(t.any_of([&first](const k::Process& p) {
    first = p.pid;
    return true;
  }));
  EXPECT_EQ(first, seen.front());
}

// Differential test against the frozen std::map table: random spawn,
// reap, set_state, open_session and close_session sequences, with every
// query compared after every step.
namespace {

constexpr std::array<k::ProcState, 4> kStates = {
    k::ProcState::Running, k::ProcState::Sleeping, k::ProcState::BlockedIo,
    k::ProcState::Zombie};

template <typename Table>
std::vector<k::Process> snapshot(const Table& t) {
  std::vector<k::Process> out;
  t.for_each([&out](const k::Process& p) { out.push_back(p); });
  return out;
}

void expect_same_process(const k::Process& want, const k::Process& got) {
  EXPECT_EQ(want.pid, got.pid);
  EXPECT_EQ(want.name, got.name);
  EXPECT_EQ(want.state, got.state);
  EXPECT_EQ(want.kernel_thread, got.kernel_thread);
  EXPECT_EQ(want.open_sessions, got.open_sessions);
}

void expect_same_queries(drowsy::testing::ReferenceProcessTable& ref, k::ProcessTable& flat,
                         k::Pid max_pid) {
  ASSERT_EQ(ref.size(), flat.size());
  for (k::Pid pid = -1; pid <= max_pid + 1; ++pid) {
    const k::Process* want = ref.find(pid);
    const k::Process* got = flat.find(pid);
    ASSERT_EQ(want == nullptr, got == nullptr) << "pid " << pid;
    if (want != nullptr) expect_same_process(*want, *got);
  }
  const std::vector<k::Process> want = snapshot(ref);
  const std::vector<k::Process> got = snapshot(flat);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) expect_same_process(want[i], got[i]);
  for (k::ProcState s : kStates) {
    const auto in_state = [s](const k::Process& p) { return p.state == s; };
    EXPECT_EQ(ref.count_if(in_state), flat.count_if(in_state));
    EXPECT_EQ(ref.any_of(in_state), flat.any_of(in_state));
  }
  const auto in_session = [](const k::Process& p) { return p.open_sessions > 0; };
  EXPECT_EQ(ref.count_if(in_session), flat.count_if(in_session));
  EXPECT_EQ(ref.any_of(in_session), flat.any_of(in_session));
}

}  // namespace

TEST(ProcessTable, MatchesFrozenMapTable) {
  const std::array<const char*, 5> names = {"webserver", "kworker/0:1", "backup", "sshd",
                                            "monitoring-agent"};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    drowsy::testing::ReferenceProcessTable ref;
    k::ProcessTable flat;
    k::Pid max_pid = 0;
    const auto pick_pid = [&] {
      // Mostly known pids, sometimes a reaped or never-spawned one.
      return static_cast<k::Pid>(rng() % static_cast<std::uint64_t>(max_pid + 3)) - 1;
    };
    for (int step = 0; step < 300; ++step) {
      switch (rng() % 6) {
        case 0:
        case 1: {
          const std::string name = names[rng() % names.size()];
          const k::ProcState state = kStates[rng() % kStates.size()];
          const bool kthread = rng() % 4 == 0;
          const k::Pid want = ref.spawn(name, state, kthread);
          ASSERT_EQ(flat.spawn(name, state, kthread), want);
          max_pid = want;
          break;
        }
        case 2: {
          const k::Pid pid = pick_pid();
          ASSERT_EQ(ref.reap(pid), flat.reap(pid));
          break;
        }
        case 3: {
          const k::Pid pid = pick_pid();
          if (ref.find(pid) == nullptr) break;
          const k::ProcState state = kStates[rng() % kStates.size()];
          ref.set_state(pid, state);
          flat.set_state(pid, state);
          break;
        }
        case 4: {
          const k::Pid pid = pick_pid();
          if (ref.find(pid) == nullptr) break;
          ++ref.find(pid)->open_sessions;
          ++flat.find(pid)->open_sessions;
          break;
        }
        case 5: {
          const k::Pid pid = pick_pid();
          if (ref.find(pid) == nullptr || ref.find(pid)->open_sessions == 0) break;
          --ref.find(pid)->open_sessions;
          --flat.find(pid)->open_sessions;
          break;
        }
      }
      expect_same_queries(ref, flat, max_pid);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ProcState, ToString) {
  EXPECT_STREQ(k::to_string(k::ProcState::Running), "running");
  EXPECT_STREQ(k::to_string(k::ProcState::Sleeping), "sleeping");
  EXPECT_STREQ(k::to_string(k::ProcState::BlockedIo), "blocked-io");
  EXPECT_STREQ(k::to_string(k::ProcState::Zombie), "zombie");
}
