// Seeded fuzz over event-queue op interleavings.
//
// Where test_differential.cpp checks the new engine against the frozen
// oracle on "realistic" schedules, this suite hammers the op surface
// itself: arbitrary interleavings of schedule_at / schedule_after /
// set_stream / step / run_until / run_all (budgeted, SIZE_MAX, and
// empty-queue calls), with times chosen adversarially — same-instant
// ties, power-of-two edges, far-future jumps.  Every run is checked
// against the oracle AND against cheap invariants that hold regardless of
// schedule (clock monotonicity, executed + pending conservation).
//
// Deterministic and bounded: a fixed seed list, a fixed op budget per
// seed, and a global event cap (runaway handlers are impossible — fuzz
// handlers schedule at most one child).  Safe for ctest.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "reference_queue.hpp"
#include "sim/event_queue.hpp"
#include "stream_feed.hpp"
#include "util/sim_time.hpp"

namespace s = drowsy::sim;
namespace u = drowsy::util;

namespace {

using LogEntry = std::pair<std::uint64_t, u::SimTime>;

/// Offsets on power-of-two seams, where the timing wheel the queue once
/// used changed tier, kept as inputs: 0 (same instant), 1 (next
/// millisecond), 1023/1024/1025, 1 << 20 ± 1, plus a couple of unaligned
/// fillers.
constexpr u::SimTime kSeamOffsets[] = {
    0, 1, 2, 511, 1023, 1024, 1025, 4096, 65'535, 65'536,
    (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3'000'000, 13,
};
constexpr std::size_t kSeamCount = sizeof(kSeamOffsets) / sizeof(kSeamOffsets[0]);

/// `sched_counter` (nullable) tracks the conservation model: children
/// count as scheduled only when the parent actually spawns them.
template <typename Q>
std::function<void()> leaf_body(Q& q, std::vector<LogEntry>& log, std::uint64_t id,
                                bool spawn_child, u::SimTime child_offset,
                                std::uint64_t* sched_counter) {
  return [&q, &log, id, spawn_child, child_offset, sched_counter] {
    log.emplace_back(id, q.now());
    if (spawn_child) {
      const std::uint64_t cid = id | 0x8000'0000'0000'0000ULL;
      if (sched_counter != nullptr) ++*sched_counter;
      q.schedule_at(q.now() + child_offset,
                    [&q, &log, cid] { log.emplace_back(cid, q.now()); });
    }
  };
}

template <typename Q>
void schedule_leaf(Q& q, std::vector<LogEntry>& log, std::uint64_t id,
                   u::SimTime at, bool spawn_child, u::SimTime child_offset,
                   std::uint64_t* sched_counter) {
  q.schedule_at(at, leaf_body(q, log, id, spawn_child, child_offset, sched_counter));
}

void fuzz_one(std::uint64_t seed, int n_ops) {
  s::EventQueue qn;
  drowsy::testing::ReferenceEventQueue qr;
  std::vector<LogEntry> ln;
  std::vector<LogEntry> lr;
  std::mt19937_64 rng(seed);
  std::uint64_t next_id = 1;
  std::uint64_t scheduled = 0;  // model count: roots + spawned children
  drowsy::testing::StreamFeed stream;

  for (int i = 0; i < n_ops; ++i) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << i);
    const u::SimTime before = qn.now();
    switch (rng() % 13) {
      case 0:
      case 1:
      case 2: {  // schedule_at on a seam
        const u::SimTime at = qn.now() + kSeamOffsets[rng() % kSeamCount];
        const bool child = (rng() % 2) == 0;
        const u::SimTime coff = kSeamOffsets[rng() % kSeamCount];
        const std::uint64_t id = next_id++;
        schedule_leaf(qn, ln, id, at, child, coff, &scheduled);
        schedule_leaf(qr, lr, id, at, child, coff, nullptr);
        ++scheduled;
        break;
      }
      case 3: {  // schedule_after (delay form)
        const u::SimTime d = kSeamOffsets[rng() % kSeamCount];
        const std::uint64_t id = next_id++;
        qn.schedule_after(d, [&qn, &ln, id] { ln.emplace_back(id, qn.now()); });
        qr.schedule_after(d, [&qr, &lr, id] { lr.emplace_back(id, qr.now()); });
        ++scheduled;
        break;
      }
      case 4: {  // same-ms burst
        const u::SimTime at = qn.now() + kSeamOffsets[rng() % kSeamCount];
        const int n = 1 + static_cast<int>(rng() % 8);
        for (int b = 0; b < n; ++b) {
          const std::uint64_t id = next_id++;
          schedule_leaf(qn, ln, id, at, false, 0, nullptr);
          schedule_leaf(qr, lr, id, at, false, 0, nullptr);
          ++scheduled;
        }
        break;
      }
      case 5:
      case 6: {  // step (often on an empty queue)
        ASSERT_EQ(qn.step(), qr.step());
        break;
      }
      case 7: {  // run_until, boundary drawn from the same seam set
        const u::SimTime until = qn.now() + kSeamOffsets[rng() % kSeamCount];
        qn.run_until(until);
        qr.run_until(until);
        ASSERT_EQ(qn.now(), until);
        break;
      }
      case 8: {  // run_until far ahead — drains the queue, jumps the clock
        const u::SimTime until = qn.now() + 2'500'000 + static_cast<u::SimTime>(rng() % 1'000'000);
        qn.run_until(until);
        qr.run_until(until);
        break;
      }
      case 9: {  // budgeted run_all, including budget 0
        const std::size_t budget = rng() % 6;
        qn.run_all(budget);
        qr.run_all(budget);
        break;
      }
      case 10: {  // full drain with the SIZE_MAX runaway guard default
        qn.run_all();
        qr.run_all();
        ASSERT_EQ(qn.pending(), 0u);
        break;
      }
      case 11: {  // a stream batch on seams, entries spawning seam children
        if (!stream.drained()) break;
        std::vector<u::SimTime> times(rng() % 10);
        for (u::SimTime& t : times) t = qn.now() + kSeamOffsets[rng() % kSeamCount];
        std::vector<std::pair<bool, u::SimTime>> kids;
        for (std::size_t k = 0; k < times.size(); ++k) {
          kids.emplace_back(rng() % 2 == 0, kSeamOffsets[rng() % kSeamCount]);
        }
        const std::uint64_t first = next_id;
        next_id += times.size();
        scheduled += times.size();
        stream.feed(qn, qr, times, drowsy::obs::EventTag::Request,
                    [&](auto& q, std::uint32_t k) {
                      constexpr bool kProd = std::is_same_v<std::decay_t<decltype(q)>, s::EventQueue>;
                      return leaf_body(q, kProd ? ln : lr, first + k, kids[k].first,
                                       kids[k].second, kProd ? &scheduled : nullptr);
                    });
        break;
      }
      default: {  // empty-queue run_until (clock pin with nothing due)
        if (qn.pending() == 0) {
          const u::SimTime until = qn.now() + 17;
          qn.run_until(until);
          qr.run_until(until);
        }
        break;
      }
    }
    // Invariants, independent of the oracle:
    ASSERT_GE(qn.now(), before) << "clock went backwards";
    ASSERT_EQ(qn.executed() + qn.pending(), scheduled) << "event conservation";
    // Oracle agreement after every op:
    ASSERT_EQ(qn.now(), qr.now());
    ASSERT_EQ(qn.pending(), qr.pending());
    ASSERT_EQ(qn.executed(), qr.executed());
  }

  qn.run_all(SIZE_MAX);
  qr.run_all(SIZE_MAX);
  ASSERT_EQ(qn.pending(), 0u);
  ASSERT_EQ(ln, lr) << "dispatch sequences diverged, seed " << seed;
  ASSERT_EQ(qn.executed(), scheduled);
}

}  // namespace

TEST(EventQueueFuzz, SeededOpInterleavings) {
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    fuzz_one(seed, 150);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueueFuzz, EmptyQueueOps) {
  // The degenerate paths, explicitly: every op on a never-used queue.
  s::EventQueue q;
  EXPECT_FALSE(q.step());
  q.run_all();
  q.run_all(0);
  q.run_all(SIZE_MAX);
  q.run_until(q.now());       // zero-width run
  q.run_until(u::hours(5.0)); // pure clock advance
  EXPECT_EQ(q.now(), u::hours(5.0));
  EXPECT_EQ(q.executed(), 0u);
  EXPECT_EQ(q.pending(), 0u);
  // And a queue that becomes empty again mid-life.
  int fired = 0;
  q.schedule_after(0, [&] { ++fired; });
  q.run_all();
  EXPECT_FALSE(q.step());
  q.run_until(q.now() + 1);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueFuzz, BudgetZeroIsANoOp) {
  s::EventQueue q;
  int fired = 0;
  q.schedule_at(5, [&] { ++fired; });
  q.run_all(0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.now(), 0);
  q.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueFuzz, BudgetStopsMidSameTimestampChain) {
  // Park a budgeted drain in the middle of an equal-timestamp batch, then
  // resume in pieces: the rest of the instant stays queued in FIFO order
  // across public calls.
  s::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    q.schedule_at(1000, [&order, i] { order.push_back(i); });
  }
  q.run_all(3);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(q.now(), 1000);
  q.run_all(2);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}
