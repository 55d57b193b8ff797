#include "sim/event_queue.hpp"

#include <chrono>

#include "obs/event_profile.hpp"

namespace drowsy::sim {

std::uint32_t EventQueue::pop_next(util::SimTime bound) {
  if (ready_head_ == kNoEvent) {
    ready_head_ = wheel_.take_due_chain(bound);
    if (ready_head_ == kNoEvent) return kNoEvent;
    ++batches_;
  } else if (slab_[ready_head_].at > bound) {
    // A previous bounded run left a partially drained chain beyond this
    // call's horizon (possible only via run_all's event budget).
    return kNoEvent;
  }
  const std::uint32_t idx = ready_head_;
  ready_head_ = slab_[idx].next;
  return idx;
}

void EventQueue::dispatch(std::uint32_t idx) {
  EventRecord& rec = slab_[idx];
  now_ = rec.at;
  const obs::EventTag tag = rec.tag;
  // Move the payload out and recycle the slot *before* invoking: the
  // handler may schedule (growing or reusing the slab) without touching
  // the running callback.
  util::InlineFn fn = std::move(rec.fn);
  slab_.free(idx);
  --pending_;
  ++executed_;
  if (profile_ != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    profile_->record(tag, static_cast<std::uint64_t>(ns));
  } else {
    fn();
  }
}

bool EventQueue::step() {
  const std::uint32_t idx = pop_next(util::kNever);
  if (idx == kNoEvent) return false;
  dispatch(idx);
  return true;
}

void EventQueue::run_until(util::SimTime until) {
  assert(until >= now_);
  // Re-pull after every dispatch so a handler scheduling at exactly
  // `until` during the final step still runs before the clock pins.
  for (;;) {
    const std::uint32_t idx = pop_next(until);
    if (idx == kNoEvent) break;
    dispatch(idx);
  }
  now_ = until;
}

void EventQueue::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
}

EventQueue::CoreStats EventQueue::core_stats() const {
  const TimerWheel::Stats& w = wheel_.stats();
  CoreStats s;
  s.cascades = w.cascades;
  s.re_anchors = w.re_anchors;
  s.far_events = w.far_events;
  s.far_refills = w.far_refills;
  s.batches = batches_;
  s.slab_slots = slab_.high_water();
  s.slab_chunks = slab_.chunk_count();
  return s;
}

}  // namespace drowsy::sim
