// Discrete-event simulation core.
//
// A single-threaded future-event list: callbacks keyed by (time, sequence
// number) executed in order.  Implements net::Dispatcher so the network
// layer schedules frame deliveries on the same timeline.
//
// Engine: tagged slab events on a hierarchical timing wheel, plus one
// pre-sequenced stream beside it.
// Each scheduled event becomes an EventRecord — small enum tag + a
// payload union (util::InlineFn: inline capture buffer or heap pointer
// for the rare oversized callback) — in chunked slab storage, filed into
// a two-level timing wheel with a far-future heap behind it
// (sim/timer_wheel.hpp).  Dispatch detaches one exact timestamp's chain
// at a time, so bursts of same-instant events (wake storms, switch
// egress batches) run without re-consulting the ordering structure per
// event.
//
// Events known a whole batch ahead (an hour's request arrivals) skip the
// wheel: set_stream() takes them as a sorted array of small POD entries
// under one reserved block of sequence numbers, and every pop takes the
// smaller of the wheel head and the stream head by (time, seq).
//
// Semantics are bit-for-bit those of the original binary-heap queue:
// strict (time, seq) order, FIFO within a timestamp, including events
// scheduled during dispatch.
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

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

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
    rec.lead = static_cast<std::uint32_t>(std::min<util::SimTime>(at - now_, UINT32_MAX));
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

  /// One entry of a pre-sequenced stream: the source's k-th event, due
  /// at `at`.  Ordered by (at, k), the dispatch order of a stream.
  struct StreamEntry {
    util::SimTime at;
    std::uint32_t k;

    friend bool operator<(const StreamEntry& a, const StreamEntry& b) {
      return a.at != b.at ? a.at < b.at : a.k < b.k;
    }
  };

  /// Where a stream's entries dispatch: fire(k) runs entry k.
  class StreamHandler {
   public:
    virtual void fire(std::uint32_t k) = 0;

   protected:
    ~StreamHandler() = default;
  };

  /// Queue a batch of events known up front without a record per event.
  /// `entries` is sorted by (at, k), its k are 0..n-1, and no `at` is
  /// before now().  Entry k takes sequence number base + k from one block
  /// reserved here, so the batch dispatches exactly as n schedule_at
  /// calls made here in k order would, each under `tag`.  The entries
  /// stay in the caller's buffer, which must not change until the
  /// stream is drained; a new stream may be set only once the previous
  /// one is (std::logic_error otherwise).
  void set_stream(const std::vector<StreamEntry>& entries, StreamHandler& handler,
                  obs::EventTag tag);

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

  /// Events not yet dispatched, stream entries included.
  [[nodiscard]] std::size_t pending() const {
    return pending_ + static_cast<std::size_t>(stream_end_ - stream_pos_);
  }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// The event whose handler is running: whether there is one, its
  /// sequence number, and the instant it was queued (saturated: an event
  /// queued more than UINT32_MAX ms ahead reports a later instant).
  /// Lets a module that stopped scheduling a periodic chain tell whether
  /// the chain's event at this instant would have run before this one.
  [[nodiscard]] bool dispatching() const { return dispatching_; }
  [[nodiscard]] std::uint64_t current_seq() const { return current_seq_; }
  [[nodiscard]] util::SimTime current_queued_at() const { return current_queued_at_; }
  /// Sequence number the next scheduled event will take.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Deterministic structural counters of the slab/wheel engine.  Bench
  /// surfaces these; they never feed back into simulation state.
  struct CoreStats {
    std::uint64_t cascades = 0;
    std::uint64_t re_anchors = 0;   ///< window jumps: to the far heap or a stream entry
    std::uint64_t far_events = 0;
    std::uint64_t far_refills = 0;
    std::uint64_t batches = 0;      ///< same-timestamp chains detached
    std::uint64_t slab_slots = 0;   ///< slab high-water mark
    std::uint64_t slab_chunks = 0;
  };
  [[nodiscard]] CoreStats core_stats() const;

 private:
  /// Dispatch the next event with deadline <= bound, from the wheel or
  /// the stream, whichever is first by (time, seq); false if none is due.
  bool dispatch_next(util::SimTime bound);
  /// Run one handler as the event (at, seq, queued_at), with the
  /// profile's accounting.
  template <typename Fn>
  void run_event(util::SimTime at, std::uint64_t seq, util::SimTime queued_at,
                 obs::EventTag tag, Fn&& fn);

  util::SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  obs::EventProfile* profile_ = nullptr;
  bool dispatching_ = false;
  std::uint64_t current_seq_ = 0;
  util::SimTime current_queued_at_ = 0;

  EventSlab slab_;
  TimerWheel wheel_;
  std::uint32_t ready_head_ = kNoEvent;  ///< detached chain at one timestamp
  std::size_t pending_ = 0;
  std::uint64_t batches_ = 0;

  // The stream: [stream_pos_, stream_end_) of the caller's sorted buffer.
  const StreamEntry* stream_pos_ = nullptr;
  const StreamEntry* stream_end_ = nullptr;
  std::uint64_t stream_base_ = 0;       ///< seq of entry k is base + k
  util::SimTime stream_queued_at_ = 0;  ///< instant set_stream ran
  StreamHandler* stream_handler_ = nullptr;
  obs::EventTag stream_tag_ = obs::EventTag::Other;
};

}  // namespace drowsy::sim
