#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/event_profile.hpp"

namespace s = drowsy::sim;
namespace u = drowsy::util;

TEST(EventQueue, ExecutesInTimeOrder) {
  s::EventQueue q;
  std::vector<int> order;
  q.schedule_at(u::seconds(30), [&] { order.push_back(3); });
  q.schedule_at(u::seconds(10), [&] { order.push_back(1); });
  q.schedule_at(u::seconds(20), [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, EqualTimesFifo) {
  s::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(u::seconds(5), [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ClockAdvancesToEventTime) {
  s::EventQueue q;
  u::SimTime seen = -1;
  q.schedule_at(u::minutes(5), [&] { seen = q.now(); });
  q.run_all();
  EXPECT_EQ(seen, u::minutes(5));
  EXPECT_EQ(q.now(), u::minutes(5));
}

TEST(EventQueue, RunUntilAdvancesClockEvenWithoutEvents) {
  s::EventQueue q;
  q.run_until(u::hours(2.0));
  EXPECT_EQ(q.now(), u::hours(2.0));
}

TEST(EventQueue, RunUntilExecutesOnlyDueEvents) {
  s::EventQueue q;
  int fired = 0;
  q.schedule_at(u::seconds(10), [&] { ++fired; });
  q.schedule_at(u::seconds(30), [&] { ++fired; });
  q.run_until(u::seconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(u::seconds(40));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  s::EventQueue q;
  u::SimTime fired_at = -1;
  q.schedule_at(u::seconds(10), [&] {
    q.schedule_after(u::seconds(5), [&] { fired_at = q.now(); });
  });
  q.run_all();
  EXPECT_EQ(fired_at, u::seconds(15));
}

TEST(EventQueue, EventsScheduledDuringRunExecute) {
  s::EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_after(u::seconds(1), recurse);
  };
  q.schedule_at(0, recurse);
  q.run_all();
  EXPECT_EQ(depth, 5);
}

TEST(EventQueue, RunAllRespectsEventBudget) {
  s::EventQueue q;
  int count = 0;
  std::function<void()> forever = [&] {
    ++count;
    q.schedule_after(u::seconds(1), forever);
  };
  q.schedule_at(0, forever);
  q.run_all(/*max_events=*/100);
  EXPECT_EQ(count, 100);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  s::EventQueue q;
  EXPECT_FALSE(q.step());
  q.schedule_at(0, [] {});
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, EqualTimesFifoWhenScheduledDuringRun) {
  // Events enqueued from inside callbacks at an already-pending timestamp
  // must still execute in submission order (the (time, seq) tie-break that
  // makes scenario runs bit-reproducible).
  s::EventQueue q;
  std::vector<int> order;
  q.schedule_at(u::seconds(1), [&] {
    order.push_back(0);
    q.schedule_at(u::seconds(5), [&] { order.push_back(3); });
    q.schedule_at(u::seconds(5), [&] { order.push_back(4); });
  });
  q.schedule_at(u::seconds(5), [&] { order.push_back(1); });
  q.schedule_at(u::seconds(5), [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, IdenticalScheduleGivesIdenticalExecution) {
  // Two queues fed the same schedule replay the same order — the property
  // the scenario BatchRunner relies on for thread-count-independent runs.
  auto replay = [] {
    s::EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      q.schedule_at(u::seconds(i % 5), [&order, i] { order.push_back(i); });
    }
    q.run_all();
    return order;
  };
  EXPECT_EQ(replay(), replay());
}

TEST(EventQueue, StartTimeOffset) {
  s::EventQueue q(u::hours(100.0));
  EXPECT_EQ(q.now(), u::hours(100.0));
  int fired = 0;
  q.schedule_after(u::seconds(1), [&] { ++fired; });
  q.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), u::hours(100.0) + u::seconds(1));
}

TEST(EventQueue, ProfileAttributesEveryEventToItsTag) {
  namespace obs = drowsy::obs;
  s::EventQueue q;
  obs::EventProfile profile;
  q.set_profile(&profile);
  // Tagged and untagged events; untagged default to Other.
  q.schedule_at(u::seconds(1), [] {}, obs::EventTag::Heartbeat);
  q.schedule_at(u::seconds(2), [] {}, obs::EventTag::Heartbeat);
  q.schedule_at(u::seconds(3), [] {}, obs::EventTag::Request);
  q.schedule_at(u::seconds(4), [] {});
  q.schedule_after(u::seconds(5), [] {}, obs::EventTag::Wake);
  q.run_all();
  EXPECT_EQ(profile.events(obs::EventTag::Heartbeat), 2u);
  EXPECT_EQ(profile.events(obs::EventTag::Request), 1u);
  EXPECT_EQ(profile.events(obs::EventTag::Wake), 1u);
  EXPECT_EQ(profile.events(obs::EventTag::Other), 1u);
  // The invariant the bench breakdown advertises: tag counts sum to the
  // queue's executed total.
  EXPECT_EQ(profile.total_events(), q.executed());
}

TEST(EventQueue, HandlerSchedulingAtExactUntilRunsBeforeClockPins) {
  // Regression (event-core rebuild): during run_until(T)'s final step a
  // handler schedules at exactly T.  The new event must dispatch within
  // the same run_until call, not strand as pending while now() == T.
  s::EventQueue q;
  std::vector<int> order;
  const u::SimTime until = u::seconds(3);
  q.schedule_at(until, [&] {
    order.push_back(1);
    q.schedule_at(until, [&] { order.push_back(2); });
    q.schedule_after(0, [&] { order.push_back(3); });
  });
  q.run_until(until);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.now(), until);
}

TEST(EventQueue, OversizedCaptureTakesHeapPathCorrectly) {
  // Captures beyond util::InlineFn::kInlineBytes fall back to one heap
  // allocation; the payload must survive slab relocation and dispatch.
  s::EventQueue q;
  std::array<std::uint64_t, 16> big{};  // 128 bytes > kInlineBytes
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 3 + 1;
  std::uint64_t sum = 0;
  q.schedule_at(u::seconds(1), [big, &sum] {
    for (auto v : big) sum += v;
  });
  q.run_all();
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < big.size(); ++i) want += i * 3 + 1;
  EXPECT_EQ(sum, want);
}

TEST(EventQueue, FarFutureEventsDispatchInOrder) {
  // Deadlines hours out, queued out of order and mixed with a near one,
  // dispatch in (time, seq) order.
  s::EventQueue q;
  std::vector<int> order;
  q.schedule_at(u::hours(3.0), [&] { order.push_back(3); });
  q.schedule_at(u::hours(1.0), [&] { order.push_back(1); });
  q.schedule_at(u::hours(2.0), [&] { order.push_back(2); });
  q.schedule_at(u::hours(1.0), [&] { order.push_back(11); });  // FIFO at 1h
  q.schedule_at(u::seconds(5), [&] { order.push_back(0); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 11, 2, 3}));
  EXPECT_EQ(q.now(), u::hours(3.0));
}

TEST(EventQueue, SlabSlotsAreRecycled) {
  // Steady-state periodic load must not grow storage: dispatch frees the
  // slot before the handler runs, so a self-rescheduling timer reuses
  // one slot forever.  core_stats() exposes the high-water mark.
  s::EventQueue q;
  int beats = 0;
  std::function<void()> beat = [&] {
    if (++beats < 1000) q.schedule_after(u::seconds(1), beat);
  };
  q.schedule_at(0, beat);
  q.run_all();
  EXPECT_EQ(beats, 1000);
  const auto stats = q.core_stats();
  // 1000 sequential events through one active slot: the high-water mark
  // must stay tiny (a handful of slots, one chunk), not scale with count.
  EXPECT_LE(stats.slab_slots, 4u);
  EXPECT_LE(stats.slab_chunks, 1u);
}

TEST(EventQueue, DetachedProfileStopsRecording) {
  namespace obs = drowsy::obs;
  s::EventQueue q;
  obs::EventProfile profile;
  q.set_profile(&profile);
  q.schedule_at(u::seconds(1), [] {}, drowsy::obs::EventTag::Wake);
  q.run_all();
  q.set_profile(nullptr);
  q.schedule_at(u::seconds(2), [] {}, drowsy::obs::EventTag::Wake);
  q.run_all();
  EXPECT_EQ(profile.total_events(), 1u);
  EXPECT_EQ(q.executed(), 2u);
}
