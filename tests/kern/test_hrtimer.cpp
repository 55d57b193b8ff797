#include "kern/hrtimer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace k = drowsy::kern;
namespace u = drowsy::util;

TEST(HrTimerQueue, EmptyPeek) {
  k::HrTimerQueue q;
  EXPECT_EQ(q.peek(), nullptr);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.fire_due(u::hours(100.0)), 0u);
}

TEST(HrTimerQueue, PeekReturnsEarliest) {
  k::HrTimerQueue q;
  k::HrTimer a, b, c;
  q.arm(a, u::seconds(30));
  q.arm(b, u::seconds(10));
  q.arm(c, u::seconds(20));
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek(), &b);
  EXPECT_EQ(q.size(), 3u);
}

TEST(HrTimerQueue, EqualExpiriesOrderedByArmSequence) {
  k::HrTimerQueue q;
  k::HrTimer a, b;
  q.arm(a, u::seconds(10));
  q.arm(b, u::seconds(10));
  EXPECT_EQ(q.peek(), &a);  // armed first wins ties
}

TEST(HrTimerQueue, CancelRemoves) {
  k::HrTimerQueue q;
  k::HrTimer a, b;
  q.arm(a, u::seconds(10));
  q.arm(b, u::seconds(20));
  q.cancel(a);
  EXPECT_EQ(q.peek(), &b);
  EXPECT_FALSE(a.armed());
  q.cancel(a);  // double-cancel is a no-op
  EXPECT_EQ(q.size(), 1u);
}

TEST(HrTimerQueue, FireDueInvokesCallbacksInOrder) {
  k::HrTimerQueue q;
  std::vector<int> order;
  k::HrTimer a, b, c;
  a.callback = [&order](u::SimTime) { order.push_back(1); };
  b.callback = [&order](u::SimTime) { order.push_back(2); };
  c.callback = [&order](u::SimTime) { order.push_back(3); };
  q.arm(b, u::seconds(20));
  q.arm(a, u::seconds(10));
  q.arm(c, u::seconds(30));
  EXPECT_EQ(q.fire_due(u::seconds(25)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(c.armed());
}

TEST(HrTimerQueue, FireDueBoundaryInclusive) {
  k::HrTimerQueue q;
  k::HrTimer a;
  q.arm(a, u::seconds(10));
  EXPECT_EQ(q.fire_due(u::seconds(10)), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(HrTimerQueue, CallbackMayRearm) {
  // Recurring-service pattern: the callback re-arms its own timer.
  k::HrTimerQueue q;
  k::HrTimer a;
  int fires = 0;
  a.callback = [&](u::SimTime now) {
    ++fires;
    if (fires < 3) q.arm(a, now + u::seconds(10));
  };
  q.arm(a, u::seconds(10));
  EXPECT_EQ(q.fire_due(u::seconds(10)), 1u);
  EXPECT_EQ(q.fire_due(u::seconds(20)), 1u);
  EXPECT_EQ(q.fire_due(u::seconds(30)), 1u);
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(q.empty());
}

TEST(HrTimerQueue, PeekFilteredSkipsFilteredOwners) {
  k::HrTimerQueue q;
  k::HrTimer kernel_timer, user_timer;
  kernel_timer.owner_pid = 1;
  user_timer.owner_pid = 100;
  q.arm(kernel_timer, u::seconds(5));   // earliest, but filtered out
  q.arm(user_timer, u::seconds(50));
  const k::HrTimer* t =
      q.peek_filtered([](const k::HrTimer& timer) { return timer.owner_pid >= 100; });
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t, &user_timer);
}

TEST(HrTimerQueue, PeekFilteredAllFilteredReturnsNull) {
  k::HrTimerQueue q;
  k::HrTimer a;
  a.owner_pid = 1;
  q.arm(a, u::seconds(5));
  EXPECT_EQ(q.peek_filtered([](const k::HrTimer&) { return false; }), nullptr);
}

TEST(HrTimerQueue, ForEachVisitsInExpiryOrder) {
  k::HrTimerQueue q;
  k::HrTimer a, b, c;
  q.arm(a, u::seconds(30));
  q.arm(b, u::seconds(10));
  q.arm(c, u::seconds(20));
  std::vector<u::SimTime> seen;
  q.for_each([&seen](const k::HrTimer& t) { seen.push_back(t.expiry); });
  EXPECT_EQ(seen, (std::vector<u::SimTime>{u::seconds(10), u::seconds(20), u::seconds(30)}));
}

TEST(HrTimerQueue, ManyTimersStayConsistent) {
  k::HrTimerQueue q;
  std::vector<k::HrTimer> timers(500);
  for (std::size_t i = 0; i < timers.size(); ++i) {
    q.arm(timers[i], u::seconds(static_cast<double>((i * 37) % 100)));
  }
  // Cancel every third timer.
  for (std::size_t i = 0; i < timers.size(); i += 3) q.cancel(timers[i]);
  // Firing everything leaves the queue empty.
  q.fire_due(u::seconds(100));
  EXPECT_TRUE(q.empty());
}

namespace {

/// The differential's reference: armed timers in a vector sorted by
/// (expiry, arm order).
struct RefTimer {
  k::HrTimer* timer;
  u::SimTime expiry;
  std::uint64_t seq;
};

struct RefQueue {
  void arm(k::HrTimer* t, u::SimTime expiry) {
    const RefTimer r{t, expiry, next_seq++};
    const auto at = std::upper_bound(
        armed.begin(), armed.end(), r, [](const RefTimer& a, const RefTimer& b) {
          return a.expiry != b.expiry ? a.expiry < b.expiry : a.seq < b.seq;
        });
    armed.insert(at, r);
  }
  void cancel(const k::HrTimer* t) {
    std::erase_if(armed, [t](const RefTimer& r) { return r.timer == t; });
  }
  [[nodiscard]] const k::HrTimer* first_kept(k::Pid min_owner) const {
    for (const RefTimer& r : armed) {
      if (r.timer->owner_pid >= min_owner) return r.timer;
    }
    return nullptr;
  }
  [[nodiscard]] std::vector<const k::HrTimer*> order() const {
    std::vector<const k::HrTimer*> out;
    for (const RefTimer& r : armed) out.push_back(r.timer);
    return out;
  }
  std::vector<RefTimer> armed;
  std::uint64_t next_seq = 0;
};

}  // namespace

class HrTimerQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HrTimerQueueFuzz, MatchesSortedVectorUnderRandomOps) {
  // Random arm, cancel, fire_due and peek_filtered calls against the
  // reference; a third of the timers are recurring services whose callback
  // re-arms them, as GuestOs's timer services do.
  u::Rng rng(GetParam());
  k::HrTimerQueue q;
  RefQueue ref;
  std::vector<k::HrTimer> timers(48);
  std::vector<const k::HrTimer*> fired, ref_fired;
  u::SimTime now = 0;
  for (std::size_t i = 0; i < timers.size(); ++i) {
    k::HrTimer* t = &timers[i];
    t->owner_pid = static_cast<k::Pid>(i % 7);
    const u::SimTime period = i % 3 == 0 ? static_cast<u::SimTime>(1 + i) : 0;
    t->callback = [&q, &fired, t, period](u::SimTime at) {
      fired.push_back(t);
      if (period > 0) q.arm(*t, at + period);
    };
  }

  for (int op = 0; op < 2000; ++op) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(timers.size()) - 1));
    k::HrTimer& t = timers[pick];
    const double dice = rng.uniform();
    if (dice < 0.45) {
      if (!t.armed()) {
        // Narrow expiry range: ties on expiry are common, and some timers
        // are already overdue when armed.
        const u::SimTime expiry = now + rng.uniform_int(-10, 60);
        q.arm(t, expiry);
        ref.arm(&t, expiry);
      }
    } else if (dice < 0.65) {
      q.cancel(t);
      ref.cancel(&t);
    } else if (dice < 0.85) {
      now += rng.uniform_int(0, 30);
      fired.clear();
      ref_fired.clear();
      const std::size_t n = q.fire_due(now);
      while (!ref.armed.empty() && ref.armed.front().expiry <= now) {
        const RefTimer r = ref.armed.front();
        ref.armed.erase(ref.armed.begin());
        ref_fired.push_back(r.timer);
        const auto i = static_cast<std::size_t>(r.timer - timers.data());
        if (i % 3 == 0) ref.arm(r.timer, now + static_cast<u::SimTime>(1 + i));
      }
      ASSERT_EQ(n, ref_fired.size()) << "op " << op;
      ASSERT_EQ(fired, ref_fired) << "fire order at op " << op;
    } else {
      const auto min_owner = static_cast<k::Pid>(rng.uniform_int(0, 7));
      const k::HrTimer* got = q.peek_filtered(
          [min_owner](const k::HrTimer& timer) { return timer.owner_pid >= min_owner; });
      ASSERT_EQ(got, ref.first_kept(min_owner)) << "op " << op;
    }

    ASSERT_EQ(q.size(), ref.armed.size()) << "op " << op;
    ASSERT_EQ(q.peek(), ref.armed.empty() ? nullptr : ref.armed.front().timer)
        << "op " << op;
    std::vector<const k::HrTimer*> order;
    q.for_each([&order](const k::HrTimer& timer) { order.push_back(&timer); });
    ASSERT_EQ(order, ref.order()) << "op " << op;
  }
  for (k::HrTimer& t : timers) q.cancel(t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HrTimerQueueFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));
