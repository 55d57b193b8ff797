// A process memoizes its blacklist verdict under the identity of the rule
// set that judged it.  These tests query one guest with several rule sets
// in turn and require every answer to match a fresh string match, so a
// verdict cached for one blacklist can never answer for another.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "kern/guest_os.hpp"

namespace k = drowsy::kern;
namespace u = drowsy::util;

namespace {

/// Every process's memoized verdict must equal the uncached string match.
void expect_verdicts_fresh(const k::GuestOs& os, const k::Blacklist& bl) {
  os.processes().for_each([&bl](const k::Process& p) {
    EXPECT_EQ(bl.contains(p), bl.contains(p.name)) << p.name;
  });
}

}  // namespace

TEST(BlacklistVerdict, NeverLeaksAcrossBlacklists) {
  k::GuestOs os;
  os.add_timer_service("monitoring-agent", 0, [](u::SimTime) { return u::minutes(1); });
  const k::Pid web =
      os.add_timer_service("webserver", 0, [](u::SimTime) { return u::hours(5.0); });
  os.processes().set_state(web, k::ProcState::Running);

  const k::Blacklist standard = k::Blacklist::standard();
  const k::Blacklist empty{};
  k::Blacklist extended = standard;  // shares the identity until it changes
  EXPECT_TRUE(os.any_relevant_running(extended));  // caches verdicts under the shared id
  extended.add_exact("webserver");

  struct Expect {
    const k::Blacklist* bl;
    bool running;
    u::SimTime timer;
  };
  const std::vector<Expect> rounds = {
      {&standard, true, u::hours(5.0)},  {&extended, false, u::kNever},
      {&standard, true, u::hours(5.0)},  {&empty, true, u::minutes(1)},
      {&extended, false, u::kNever},     {&empty, true, u::minutes(1)},
      {&standard, true, u::hours(5.0)},  {&extended, false, u::kNever},
  };
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    const Expect& r = rounds[i];
    EXPECT_EQ(os.any_relevant_running(*r.bl), r.running);
    EXPECT_EQ(os.earliest_relevant_timer(*r.bl), r.timer);
    expect_verdicts_fresh(os, *r.bl);
  }
}

TEST(BlacklistVerdict, AddRuleInvalidatesVerdicts) {
  k::GuestOs os;
  const k::Pid svc = os.spawn_service("backup");
  os.processes().set_state(svc, k::ProcState::Running);
  k::Blacklist bl = k::Blacklist::standard();
  EXPECT_TRUE(os.any_relevant_running(bl));
  bl.add_prefix("back");
  EXPECT_FALSE(os.any_relevant_running(bl));
  expect_verdicts_fresh(os, bl);
}

TEST(BlacklistVerdict, MovedAndAssignedBlacklistsStayConsistent) {
  k::GuestOs os;
  const k::Pid svc = os.spawn_service("webserver");
  os.processes().set_state(svc, k::ProcState::Running);

  k::Blacklist source = k::Blacklist::standard();
  source.add_exact("webserver");
  EXPECT_FALSE(os.any_relevant_running(source));
  k::Blacklist moved = std::move(source);
  EXPECT_FALSE(os.any_relevant_running(moved));
  // Moving copies: the source keeps its rules and so its verdicts.
  EXPECT_FALSE(os.any_relevant_running(source));  // NOLINT(bugprone-use-after-move)
  expect_verdicts_fresh(os, source);
  source = k::Blacklist{};
  EXPECT_TRUE(os.any_relevant_running(source));

  k::Blacklist assigned;
  assigned = moved;
  EXPECT_FALSE(os.any_relevant_running(assigned));
  assigned = k::Blacklist::standard();
  EXPECT_TRUE(os.any_relevant_running(assigned));
  expect_verdicts_fresh(os, moved);
  expect_verdicts_fresh(os, assigned);
}
