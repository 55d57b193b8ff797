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
  if (!heap_.empty() && heap_.front().at <= bound) {
    const Key& top = heap_.front();
    if (!stream_due || top.at < stream_pos_->at ||
        (top.at == stream_pos_->at && top.seq < stream_base_ + stream_pos_->k)) {
      std::pop_heap(heap_.begin(), heap_.end(), &later);
      const Key key = heap_.back();
      heap_.pop_back();
      EventRecord& rec = slab_[key.idx];
      const obs::EventTag tag = rec.tag;
      // Move the payload out and recycle the slot *before* invoking: the
      // handler may schedule (growing or reusing the slab) without
      // touching the running callback.
      util::InlineFn fn = std::move(rec.fn);
      slab_.free(key.idx);
      run_event(key.at, key.seq, key.at - key.lead, tag, fn);
      return true;
    }
  }
  if (!stream_due) return false;
  const StreamEntry entry = *stream_pos_++;
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
  CoreStats s;
  s.slab_slots = slab_.high_water();
  s.slab_chunks = slab_.chunk_count();
  return s;
}

}  // namespace drowsy::sim
