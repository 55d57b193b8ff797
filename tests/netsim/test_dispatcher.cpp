#include "netsim/dispatcher.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"

namespace ns = drowsy::netsim;
namespace s = drowsy::sim;
namespace u = drowsy::util;

namespace {
constexpr auto kFrame = drowsy::obs::EventTag::NetsimFrame;
}  // namespace

TEST(EventQueueDispatcher, PassthroughPreservesBareQueueOrdering) {
  // serialization = 0 must be an exact passthrough: the same (time, seq)
  // interleaving the bare queue would produce, since every pre-netsim
  // scenario's byte-identity depends on it.
  s::EventQueue q;
  ns::EventQueueDispatcher d(q, /*serialization=*/0);
  std::vector<int> order;
  d.schedule_after(5, [&] { order.push_back(1); }, kFrame);
  q.schedule_after(5, [&] { order.push_back(2); });  // same instant, later seq
  d.schedule_after(3, [&] { order.push_back(3); }, kFrame);
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(d.frames(), 2u);
  EXPECT_TRUE(d.queue_delay_ms().empty());
  EXPECT_EQ(d.queue_delay_p99_ms(), 0.0);
}

TEST(EventQueueDispatcher, SerializationQueuesConcurrentFrames) {
  // Three frames injected in the same instant with port latency 2 and
  // serialization 5: the pipe frees at 5, 10, 15, so deliveries land at
  // 7, 12, 17 and the queue delays are 5 and 10 (the first frame never
  // waits and is not sampled).
  s::EventQueue q;
  ns::EventQueueDispatcher d(q, /*serialization=*/5);
  std::vector<u::SimTime> delivered;
  q.schedule_at(0, [&] {
    for (int i = 0; i < 3; ++i) {
      d.schedule_after(2, [&] { delivered.push_back(q.now()); }, kFrame);
    }
  });
  q.run_all();
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered[0], 7);
  EXPECT_EQ(delivered[1], 12);
  EXPECT_EQ(delivered[2], 17);
  ASSERT_EQ(d.queue_delay_ms().count(), 2u);
  EXPECT_DOUBLE_EQ(d.queue_delay_ms().quantile(1.0), 10.0);
  EXPECT_GT(d.queue_delay_p99_ms(), 0.0);
}

TEST(EventQueueDispatcher, IdlePipeAddsNoQueueDelay) {
  // Frames spaced wider than the serialization time never wait: each
  // arrives at an idle pipe and only pays serialization + port latency.
  s::EventQueue q;
  ns::EventQueueDispatcher d(q, /*serialization=*/5);
  std::vector<u::SimTime> delivered;
  for (u::SimTime t : {0, 100, 200}) {
    q.schedule_at(t, [&] {
      d.schedule_after(2, [&] { delivered.push_back(q.now()); }, kFrame);
    });
  }
  q.run_all();
  EXPECT_EQ(delivered, (std::vector<u::SimTime>{7, 107, 207}));
  EXPECT_TRUE(d.queue_delay_ms().empty());
}
