#include "sim/event_queue.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/event_profile.hpp"

namespace drowsy::sim {

void EventQueue::set_stream(const std::vector<StreamEntry>& entries, StreamHandler& handler,
                            obs::EventTag tag) {
  if (stream_pos_ != stream_end_) {
    throw std::logic_error("EventQueue::set_stream: the previous stream is not drained");
  }
  assert(std::is_sorted(entries.begin(), entries.end()));
  assert(entries.empty() || entries.front().at >= now_);
  stream_pos_ = entries.data();
  stream_end_ = entries.data() + entries.size();
  stream_base_ = next_seq_;
  next_seq_ += entries.size();
  stream_queued_at_ = now_;
  stream_handler_ = &handler;
  stream_tag_ = tag;
}

template <typename Fn>
void EventQueue::run_event(util::SimTime at, std::uint64_t seq, util::SimTime queued_at,
                           obs::EventTag tag, Fn&& fn) {
  now_ = at;
  ++executed_;
  dispatching_ = true;
  current_seq_ = seq;
  current_queued_at_ = queued_at;
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
  dispatching_ = false;
}

bool EventQueue::dispatch_next(util::SimTime bound) {
  const bool stream_due = stream_pos_ != stream_end_ && stream_pos_->at <= bound;
  if (ready_head_ == kNoEvent) {
    // Detach no chain later than a due stream head: that entry runs first
    // and may schedule ahead of the chain.
    ready_head_ = wheel_.take_due_chain(stream_due ? stream_pos_->at : bound);
    if (ready_head_ != kNoEvent) ++batches_;
  }
  if (ready_head_ != kNoEvent) {
    // A chain left over from an earlier call sits at now(), so it is due.
    EventRecord& rec = slab_[ready_head_];
    assert(rec.at <= bound);
    if (!stream_due || rec.at < stream_pos_->at ||
        (rec.at == stream_pos_->at && rec.seq < stream_base_ + stream_pos_->k)) {
      const std::uint32_t idx = ready_head_;
      ready_head_ = rec.next;
      const util::SimTime at = rec.at;
      const std::uint64_t seq = rec.seq;
      const util::SimTime queued_at = at - rec.lead;
      const obs::EventTag tag = rec.tag;
      // Move the payload out and recycle the slot *before* invoking: the
      // handler may schedule (growing or reusing the slab) without
      // touching the running callback.
      util::InlineFn fn = std::move(rec.fn);
      slab_.free(idx);
      --pending_;
      run_event(at, seq, queued_at, tag, fn);
      return true;
    }
  } else if (!stream_due) {
    return false;
  }
  const StreamEntry entry = *stream_pos_++;
  // Nothing in the wheel is due at or before the entry: re-anchor L0 on
  // its instant, so what the handler schedules there lands in L0.
  if (ready_head_ == kNoEvent) wheel_.advance_to(entry.at);
  run_event(entry.at, stream_base_ + entry.k, stream_queued_at_, stream_tag_,
            [this, k = entry.k] { stream_handler_->fire(k); });
  return true;
}

bool EventQueue::step() { return dispatch_next(util::kNever); }

void EventQueue::run_until(util::SimTime until) {
  assert(until >= now_);
  // Re-pull after every dispatch so a handler scheduling at exactly
  // `until` during the final step still runs before the clock pins.
  while (dispatch_next(until)) {
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
