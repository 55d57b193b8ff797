// Differential oracle for the event-core rebuild.
//
// The slab + timing-wheel engine replaced the binary-heap queue on the
// promise of *identical* semantics: strict (time, seq) dispatch order,
// FIFO within a timestamp, run_until pinning, budgeted run_all.  This
// suite checks the promise mechanically — the same randomized schedule is
// driven through the production sim::EventQueue and through the frozen
// original (tests/sim/reference_queue.hpp), and every observable must
// match: the full dispatch log (event id, dispatch time), now(),
// pending(), executed() after every operation, and the per-tag profile
// counts at the end.
//
// Schedules are generated online from a seeded RNG and include the cases
// the wheel could plausibly get wrong: equal-timestamp bursts, events
// scheduled from inside handlers (including at the handler's own
// timestamp and at exactly a run_until boundary), delays that land in the
// L0 window, the L1 blocks, and the far-future heap, and budgeted
// run_all stops that leave a chain half-drained.  Batches also go to the
// production queue's pre-sequenced stream (the reference gets the same
// batch as plain schedule_at calls, stream_feed.hpp), tied on both sides
// of their seq block with wheel events.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/event_profile.hpp"
#include "obs/event_tag.hpp"
#include "sim/event_queue.hpp"
#include "reference_queue.hpp"
#include "stream_feed.hpp"
#include "util/sim_time.hpp"

namespace s = drowsy::sim;
namespace u = drowsy::util;
namespace obs = drowsy::obs;

namespace {

/// Dispatch log entry: which event ran, and at what simulated instant.
using LogEntry = std::pair<std::uint64_t, u::SimTime>;

std::uint64_t mix(std::uint64_t x) {
  // splitmix64 finalizer — per-event behavior derives from mix(seed ^ id)
  // so it depends only on the event's identity, never on dispatch order.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

obs::EventTag tag_of(std::uint64_t h) {
  return static_cast<obs::EventTag>(h % obs::kEventTagCount);
}

/// Child delays by hash bucket: same-instant, L0-window, L1-block, and
/// far-heap (> 2^20 ms) territory all represented.
u::SimTime child_delay(std::uint64_t h) {
  switch (h % 8) {
    case 0: return 0;  // same timestamp as the running handler
    case 1: return 1;
    case 2: return 7;
    case 3: return 100;
    case 4: return 1000;            // typically crosses the L0 window
    case 5: return 60'000;          // L1 block
    case 6: return 300'000;         // deeper L1
    default: return 2'000'000;      // beyond kSpan1: far-future heap
  }
}

template <typename Q>
void schedule_node(Q& q, std::vector<LogEntry>& log, std::uint64_t seed,
                   std::uint64_t id, int depth, u::SimTime at);

/// The handler of event `id`: log it, then deterministically (from
/// mix(seed ^ id)) spawn 0–2 children, so schedule-during-dispatch paths
/// are exercised on both queues identically.
template <typename Q>
auto node_body(Q& q, std::vector<LogEntry>& log, std::uint64_t seed, std::uint64_t id,
               int depth) {
  return [&q, &log, seed, id, depth] {
    log.emplace_back(id, q.now());
    if (depth >= 3) return;
    const std::uint64_t hh = mix(seed ^ id);
    const int kids = static_cast<int>((hh >> 8) % 3);
    for (int k = 0; k < kids; ++k) {
      const std::uint64_t cid = mix(id + 0x1000 + static_cast<std::uint64_t>(k));
      const std::uint64_t ch = mix(seed ^ cid);
      schedule_node(q, log, seed, cid, depth + 1, q.now() + child_delay(ch >> 16));
    }
  };
}

/// Schedule event `id` at `at` on queue `q`, logging to `log`.
template <typename Q>
void schedule_node(Q& q, std::vector<LogEntry>& log, std::uint64_t seed,
                   std::uint64_t id, int depth, u::SimTime at) {
  q.schedule_at(at, node_body(q, log, seed, id, depth), tag_of(mix(seed ^ id)));
}

/// Stream entry times: 1–4 runs (like one VM's arrivals each), every run
/// ascending from a near, L1 or far-heap start, with same-instant ties.
std::vector<u::SimTime> stream_times(std::mt19937_64& rng, u::SimTime now) {
  std::vector<u::SimTime> times;
  const int runs = 1 + static_cast<int>(rng() % 4);
  for (int r = 0; r < runs; ++r) {
    static constexpr u::SimTime kStarts[] = {0, 3, 900, 70'000, 2'500'000};
    u::SimTime t = now + kStarts[rng() % 5] + static_cast<u::SimTime>(rng() % 50);
    const int n = static_cast<int>(rng() % 8);
    for (int i = 0; i < n; ++i) {
      times.push_back(t);
      t += static_cast<u::SimTime>(rng() % 4 == 0 ? 0 : rng() % 1500);
    }
  }
  return times;
}

/// Drive both queues through the same seeded op sequence, asserting the
/// observables agree after every op and the dispatch logs match exactly.
/// Adds to `streamed` how many events went through the stream.
void run_differential(std::uint64_t seed, int n_ops, std::size_t& streamed) {
  s::EventQueue qn;
  drowsy::testing::ReferenceEventQueue qr;
  obs::EventProfile pn;
  obs::EventProfile pr;
  qn.set_profile(&pn);
  qr.set_profile(&pr);
  std::vector<LogEntry> ln;
  std::vector<LogEntry> lr;

  std::mt19937_64 rng(seed);
  std::uint64_t next_root = 1;
  drowsy::testing::StreamFeed stream;

  for (int i = 0; i < n_ops; ++i) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << i);
    switch (rng() % 11) {
      case 0:
      case 1:
      case 2:
      case 3: {  // one root event at a near/far offset
        const u::SimTime at = qn.now() + static_cast<u::SimTime>(rng() % 500'000);
        const std::uint64_t id = next_root++ << 20;
        schedule_node(qn, ln, seed, id, 0, at);
        schedule_node(qr, lr, seed, id, 0, at);
        break;
      }
      case 4: {  // equal-timestamp burst
        const u::SimTime at = qn.now() + static_cast<u::SimTime>(rng() % 2'000);
        for (int b = 0; b < 5; ++b) {
          const std::uint64_t id = next_root++ << 20;
          schedule_node(qn, ln, seed, id, 0, at);
          schedule_node(qr, lr, seed, id, 0, at);
        }
        break;
      }
      case 5:
      case 6: {  // bounded run — boundary may coincide with an event time
        const u::SimTime until = qn.now() + static_cast<u::SimTime>(rng() % 100'000);
        qn.run_until(until);
        qr.run_until(until);
        break;
      }
      case 7: {  // single step
        const bool sn = qn.step();
        const bool sr = qr.step();
        ASSERT_EQ(sn, sr);
        break;
      }
      case 8: {  // budgeted drain — can park mid-chain
        const std::size_t budget = rng() % 16;
        qn.run_all(budget);
        qr.run_all(budget);
        break;
      }
      case 9: {  // a stream batch, with wheel ties before and after its seqs
        if (!stream.drained()) break;
        const std::vector<u::SimTime> times = stream_times(rng, qn.now());
        if (times.empty()) break;
        const u::SimTime tie = times[rng() % times.size()];
        const std::uint64_t before = next_root++ << 20;
        schedule_node(qn, ln, seed, before, 0, tie);
        schedule_node(qr, lr, seed, before, 0, tie);
        const std::uint64_t first = next_root;
        next_root += times.size();
        stream.feed(qn, qr, times, drowsy::obs::EventTag::Request,
                    [&, first](auto& q, std::uint32_t k) {
                      std::vector<LogEntry>& log =
                          std::is_same_v<std::decay_t<decltype(q)>, s::EventQueue> ? ln : lr;
                      return std::function<void()>(
                          node_body(q, log, seed, (first + k) << 20, 0));
                    });
        streamed += times.size();
        const std::uint64_t after = next_root++ << 20;
        schedule_node(qn, ln, seed, after, 0, tie);
        schedule_node(qr, lr, seed, after, 0, tie);
        break;
      }
      default: {  // far-future root (exercises heap tier + re-anchor)
        const u::SimTime at =
            qn.now() + 1'500'000 + static_cast<u::SimTime>(rng() % 8'000'000);
        const std::uint64_t id = next_root++ << 20;
        schedule_node(qn, ln, seed, id, 0, at);
        schedule_node(qr, lr, seed, id, 0, at);
        break;
      }
    }
    ASSERT_EQ(qn.now(), qr.now());
    ASSERT_EQ(qn.pending(), qr.pending());
    ASSERT_EQ(qn.executed(), qr.executed());
    ASSERT_EQ(ln.size(), lr.size());
  }

  qn.run_all();
  qr.run_all();
  ASSERT_EQ(qn.now(), qr.now()) << "seed " << seed;
  ASSERT_EQ(qn.pending(), 0u);
  ASSERT_EQ(qr.pending(), 0u);
  ASSERT_EQ(qn.executed(), qr.executed()) << "seed " << seed;
  ASSERT_EQ(ln, lr) << "dispatch sequences diverged, seed " << seed;
  for (obs::EventTag tag : obs::all_event_tags()) {
    EXPECT_EQ(pn.events(tag), pr.events(tag))
        << "tag " << obs::to_string(tag) << ", seed " << seed;
  }
  EXPECT_EQ(pn.total_events(), qn.executed());
  qn.set_profile(nullptr);
  qr.set_profile(nullptr);
}

}  // namespace

TEST(EventQueueDifferential, RandomSchedulesMatchOracle) {
  std::size_t streamed = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_differential(seed, 120, streamed);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(streamed, 100u);
}

TEST(EventQueueDifferential, LongRandomScheduleMatchesOracle) {
  // One deep run: more ops means more wheel cascades, far-heap refills,
  // and re-anchors inside a single queue lifetime.
  std::size_t streamed = 0;
  run_differential(0xD0D0'CACA'0001ULL, 600, streamed);
  EXPECT_GT(streamed, 0u);
}

TEST(EventQueueDifferential, ScheduleAtExactRunUntilBoundary) {
  // A handler dispatched during run_until(T) schedules a new event at
  // exactly T.  Both engines must dispatch it before the clock pins —
  // the regression this PR's run_until re-pull exists for.
  s::EventQueue qn;
  drowsy::testing::ReferenceEventQueue qr;
  std::vector<LogEntry> ln;
  std::vector<LogEntry> lr;
  const u::SimTime until = u::seconds(10);
  auto plant = [until](auto& q, std::vector<LogEntry>& log) {
    q.schedule_at(u::seconds(10) - 1, [&q, &log, until] {
      log.emplace_back(1, q.now());
      q.schedule_at(until, [&q, &log] { log.emplace_back(2, q.now()); });
      q.schedule_at(until + 1, [&q, &log] { log.emplace_back(3, q.now()); });
    });
  };
  plant(qn, ln);
  plant(qr, lr);
  qn.run_until(until);
  qr.run_until(until);
  ASSERT_EQ(ln, lr);
  ASSERT_EQ(ln, (std::vector<LogEntry>{{1, until - 1}, {2, until}}));
  EXPECT_EQ(qn.now(), until);
  EXPECT_EQ(qn.pending(), 1u);
  EXPECT_EQ(qr.pending(), 1u);
  qn.run_all();
  qr.run_all();
  ASSERT_EQ(ln, lr);
  EXPECT_EQ(ln.back(), (LogEntry{3, until + 1}));
}

namespace {

/// The production queue beside the oracle, fed identical scripts: wheel
/// events, stream batches and run calls.  Event `id` logs itself and, with
/// child >= 0, schedules event id + 1000 that far ahead.
struct StreamPair {
  s::EventQueue qn;
  drowsy::testing::ReferenceEventQueue qr;
  std::vector<LogEntry> ln;
  std::vector<LogEntry> lr;
  drowsy::testing::StreamFeed stream;

  template <typename Q>
  static std::function<void()> body(Q& q, std::vector<LogEntry>& log, std::uint64_t id,
                                    u::SimTime child) {
    return [&q, &log, id, child] {
      log.emplace_back(id, q.now());
      if (child >= 0) {
        q.schedule_at(q.now() + child, [&q, &log, id] { log.emplace_back(id + 1000, q.now()); });
      }
    };
  }

  void at(u::SimTime t, std::uint64_t id, u::SimTime child = -1) {
    qn.schedule_at(t, body(qn, ln, id, child));
    qr.schedule_at(t, body(qr, lr, id, child));
  }

  /// Entries first_id + k at times[k].
  void feed(const std::vector<u::SimTime>& times, std::uint64_t first_id, u::SimTime child = -1) {
    stream.feed(qn, qr, times, obs::EventTag::Request, [&, first_id, child](auto& q, std::uint32_t k) {
      std::vector<LogEntry>& log =
          std::is_same_v<std::decay_t<decltype(q)>, s::EventQueue> ? ln : lr;
      return body(q, log, first_id + k, child);
    });
  }

  void run_until(u::SimTime t) {
    qn.run_until(t);
    qr.run_until(t);
    expect_same();
  }
  void run_all(std::size_t budget = SIZE_MAX) {
    qn.run_all(budget);
    qr.run_all(budget);
    expect_same();
  }
  void expect_same() const {
    EXPECT_EQ(ln, lr);
    EXPECT_EQ(qn.now(), qr.now());
    EXPECT_EQ(qn.pending(), qr.pending());
    EXPECT_EQ(qn.executed(), qr.executed());
  }

  [[nodiscard]] std::vector<std::uint64_t> ids() const {
    std::vector<std::uint64_t> out;
    for (const LogEntry& e : ln) out.push_back(e.first);
    return out;
  }
};

}  // namespace

TEST(EventQueueStream, TiesWithWheelEventsOnBothSidesOfItsSeqBlock) {
  // Wheel events queued before the batch precede its entries at the same
  // instant; those queued after follow them.
  StreamPair p;
  p.at(1000, 1);
  p.at(1001, 2);
  p.feed({1001, 1000, 1000}, 10);
  p.at(1000, 3);
  p.at(1001, 4);
  p.run_all();
  EXPECT_EQ(p.ids(), (std::vector<std::uint64_t>{1, 11, 12, 3, 2, 10, 4}));
}

TEST(EventQueueStream, EventsScheduledAtTheHeadsInstantDuringDispatch) {
  // Every handler at 500 schedules a child at 500: the children follow
  // every entry and wheel event already queued there, in schedule order.
  StreamPair p;
  p.at(500, 1, 0);
  p.feed({500, 500, 500, 501}, 10, 0);
  p.at(500, 2, 0);
  p.run_all();
  EXPECT_EQ(p.ids(), (std::vector<std::uint64_t>{1, 10, 11, 12, 2, 1001, 1010, 1011, 1012,
                                                 1002, 13, 1013}));
}

TEST(EventQueueStream, RunUntilEndsExactlyOnAnEntry) {
  StreamPair p;
  p.feed({100, 200, 200, 300}, 10, 0);
  p.run_until(200);
  // Both entries at 200 and the children they queued at 200 ran.
  EXPECT_EQ(p.ids(), (std::vector<std::uint64_t>{10, 1010, 11, 12, 1011, 1012}));
  EXPECT_EQ(p.qn.pending(), 1u);
  p.run_until(299);
  EXPECT_EQ(p.ln.size(), 6u);
  p.run_until(300);
  EXPECT_EQ(p.ln.size(), 8u);
  EXPECT_EQ(p.qn.pending(), 0u);
}

TEST(EventQueueStream, RunAllBudgetStopsMidStream) {
  StreamPair p;
  p.at(10, 1);
  p.feed({10, 10, 10, 20, 30}, 10, 5);
  p.at(10, 2);
  for (const std::size_t budget : {2, 1, 0, 3, 1}) {
    p.run_all(budget);
    if (::testing::Test::HasFailure()) return;
  }
  p.run_until(p.qn.now() + 7);
  p.at(p.qn.now(), 3);
  p.run_all(2);
  p.run_all();
  EXPECT_EQ(p.ln.size(), 13u);
}

TEST(EventQueueStream, ReAnchorThenL1AndFarInserts) {
  // Far past the L1 horizon with an empty wheel, an entry re-anchors L0
  // on its instant; its handler then files events into L0, L1 and the far
  // heap, and a later entry lands among them.
  StreamPair p;
  const u::SimTime t = 5'000'000;
  p.stream.feed(p.qn, p.qr, {t, t + 4'000, t + 4'000}, obs::EventTag::Request,
                [&p](auto& q, std::uint32_t k) -> std::function<void()> {
                  std::vector<LogEntry>& log =
                      std::is_same_v<std::decay_t<decltype(q)>, s::EventQueue> ? p.ln : p.lr;
                  return [&q, &log, k] {
                    log.emplace_back(k, q.now());
                    if (k != 0) return;
                    for (const u::SimTime d : {0, 3, 4'000, 70'000, 3'000'000}) {
                      q.schedule_at(q.now() + d, [&q, &log, d] {
                        log.emplace_back(100 + static_cast<std::uint64_t>(d), q.now());
                      });
                    }
                  };
                });
  p.run_until(t);
  const s::EventQueue::CoreStats after_entry = p.qn.core_stats();
  EXPECT_EQ(after_entry.re_anchors, 1u);
  EXPECT_EQ(after_entry.far_events, 1u);  // only the +3'000'000 child
  p.run_all();
  EXPECT_EQ(p.ln.size(), 8u);
  EXPECT_EQ(p.ln[3], (LogEntry{1, t + 4'000}));  // entry 1 before the +4000 child
  EXPECT_EQ(p.ln[5], (LogEntry{100 + 4'000, t + 4'000}));
}

TEST(EventQueueStream, ANewStreamWaitsForTheLastToDrain) {
  struct Log final : s::EventQueue::StreamHandler {
    void fire(std::uint32_t k) override { fired.push_back(k); }
    std::vector<std::uint32_t> fired;
  } log;
  s::EventQueue q;
  const std::vector<s::EventQueue::StreamEntry> first = {{10, 0}, {20, 1}};
  const std::vector<s::EventQueue::StreamEntry> second = {{30, 0}};
  q.set_stream(first, log, obs::EventTag::Request);
  q.run_until(10);
  EXPECT_THROW(q.set_stream(second, log, obs::EventTag::Request), std::logic_error);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(20);
  q.set_stream(second, log, obs::EventTag::Request);
  q.run_all();
  EXPECT_EQ(log.fired, (std::vector<std::uint32_t>{0, 1, 0}));
  EXPECT_EQ(q.now(), 30);
}
