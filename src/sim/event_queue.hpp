// Discrete-event simulation core.
//
// A single-threaded future-event list: callbacks keyed by (time, sequence
// number) executed in order.  Implements net::Dispatcher so the network
// layer schedules frame deliveries on the same timeline.
//
// Engine: tagged slab events on a hierarchical timing wheel.
// Each scheduled event becomes an EventRecord — small enum tag + a
// payload union (util::InlineFn: inline capture buffer or heap pointer
// for the rare oversized callback) — in chunked slab storage, filed into
// a two-level timing wheel with a far-future heap behind it
// (sim/timer_wheel.hpp).  Dispatch detaches one exact timestamp's chain
// at a time, so bursts of same-instant events (wake storms, switch
// egress batches) run without re-consulting the ordering structure per
// event.  Semantics are bit-for-bit those of the original binary-heap
// queue: strict (time, seq) order, FIFO within a timestamp, including
// events scheduled during dispatch.
//
// The original binary-heap queue survives once, frozen, as the test-only
// differential oracle for randomized schedules
// (tests/sim/reference_queue.hpp); the checked-in goldens pin whole
// sweeps' outputs byte for byte.
//
// Observability: every event carries an obs::EventTag (defaulting to
// Other) and the queue accepts an optional obs::EventProfile.  While a
// profile is attached, each dispatch attributes the event's count and
// handler wall-time to its tag.  With no profile attached the cost is
// one pointer test per event, and tags never influence ordering, so
// profiled and unprofiled runs produce identical simulation output.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "net/sdn_switch.hpp"
#include "obs/event_tag.hpp"
#include "util/inline_fn.hpp"
#include "util/sim_time.hpp"

#include "sim/event_slab.hpp"
#include "sim/timer_wheel.hpp"

namespace drowsy::obs {
class EventProfile;
}  // namespace drowsy::obs

namespace drowsy::sim {

/// The simulation clock and event loop.
class EventQueue final : public net::Dispatcher {
 public:
  explicit EventQueue(util::SimTime start = 0)
      : now_(start), wheel_(slab_, start) {}

  /// Current simulated instant.
  [[nodiscard]] util::SimTime now() const override { return now_; }

  /// Schedule any callable at absolute time `at` (>= now).  The capture
  /// state is emplaced straight into the event record — no intermediate
  /// std::function, no allocation for captures up to
  /// util::InlineFn::kInlineBytes.
  template <typename F>
  void schedule_at(util::SimTime at, F&& fn,
                   obs::EventTag tag = obs::EventTag::Other) {
    assert(at >= now_ && "cannot schedule in the past");
    const std::uint32_t idx = slab_.alloc();
    EventRecord& rec = slab_[idx];
    rec.at = at;
    rec.seq = next_seq_++;
    rec.tag = tag;
    rec.fn.emplace(std::forward<F>(fn));
    wheel_.insert(idx);
    ++pending_;
  }

  /// Schedule `fn` after `delay` of simulated time.
  template <typename F>
  void schedule_after(util::SimTime delay, F&& fn,
                      obs::EventTag tag = obs::EventTag::Other) {
    assert(delay >= 0);
    schedule_at(now_ + delay, std::forward<F>(fn), tag);
  }

  /// Dispatcher interface (type-erased path used through net::Dispatcher&).
  void schedule_after(util::SimTime delay, util::InlineFn fn) override {
    schedule_at(now_ + delay, std::move(fn));
  }
  void schedule_after(util::SimTime delay, util::InlineFn fn,
                      obs::EventTag tag) override {
    schedule_at(now_ + delay, std::move(fn), tag);
  }

  /// Attach (or with nullptr, detach) a per-tag profile.  While attached,
  /// each step() records the event's tag and handler wall-time into it.
  /// The profile must outlive the attachment; callers detach before
  /// tearing it down.
  void set_profile(obs::EventProfile* profile) { profile_ = profile; }
  [[nodiscard]] obs::EventProfile* profile() const { return profile_; }

  /// Execute the next event; returns false when the queue is empty.
  bool step();

  /// Run every event with time <= `until`, then advance the clock to
  /// `until` (even if no event lands exactly there).  An event a handler
  /// schedules at exactly `until` during the final step still dispatches
  /// before the clock pins (regression-tested).
  void run_until(util::SimTime until);

  /// Drain the whole queue (bounded by `max_events` as a runaway guard).
  void run_all(std::size_t max_events = SIZE_MAX);

  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Deterministic structural counters of the slab/wheel engine.  Bench
  /// surfaces these; they never feed back into simulation state.
  struct CoreStats {
    std::uint64_t cascades = 0;
    std::uint64_t re_anchors = 0;
    std::uint64_t far_events = 0;
    std::uint64_t far_refills = 0;
    std::uint64_t batches = 0;      ///< same-timestamp chains detached
    std::uint64_t slab_slots = 0;   ///< slab high-water mark
    std::uint64_t slab_chunks = 0;
  };
  [[nodiscard]] CoreStats core_stats() const;

 private:
  /// Pop the next event index with deadline <= bound (kNoEvent if none),
  /// pulling a fresh same-timestamp chain from the wheel when the current
  /// one is drained.
  [[nodiscard]] std::uint32_t pop_next(util::SimTime bound);
  void dispatch(std::uint32_t idx);

  util::SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  obs::EventProfile* profile_ = nullptr;

  EventSlab slab_;
  TimerWheel wheel_;
  std::uint32_t ready_head_ = kNoEvent;  ///< detached chain at one timestamp
  std::size_t pending_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace drowsy::sim
