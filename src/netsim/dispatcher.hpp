// Network-in-the-loop frame scheduling (paper §V: the waking module lives
// *on* the SDN switch, so wakes share the switch with request traffic).
//
// sim::EventQueue already implements net::Dispatcher, but scheduling every
// frame directly on the queue models an infinitely fast switch: concurrent
// deliveries never contend.  EventQueueDispatcher interposes a single
// serializing egress pipe — each frame occupies the switch for a
// configurable serialization time, so a burst of simultaneous WoL wakes
// (the wake-storm case) queues up and later frames pay a measurable
// queueing delay.  With serialization = 0 the dispatcher is an exact
// passthrough: frames keep the (time, seq) order the bare queue would have
// given them, which is what keeps every pre-netsim scenario byte-identical.
#pragma once

#include <cstdint>

#include "net/sdn_switch.hpp"
#include "sim/event_queue.hpp"
#include "util/stats.hpp"

namespace drowsy::netsim {

/// A net::Dispatcher over the shared simulation event queue that models
/// switch egress contention.  Deterministic: state is a single
/// `busy_until` watermark advanced in event order.
class EventQueueDispatcher final : public net::Dispatcher {
 public:
  explicit EventQueueDispatcher(sim::EventQueue& queue,
                                util::SimTime serialization = 0)
      : queue_(queue), serialization_(serialization) {}

  [[nodiscard]] util::SimTime now() const override { return queue_.now(); }

  /// Schedule a frame delivery `delay` (the switch's port latency) from
  /// now.  The frame additionally waits for the serializing pipe: it
  /// starts when the pipe frees up and occupies it for `serialization`.
  void schedule_after(util::SimTime delay, util::InlineFn fn,
                      obs::EventTag tag) override;

  /// Only a passthrough lets a frame run in place.
  [[nodiscard]] bool would_run_next() const override {
    return serialization_ <= 0 && queue_.would_run_next();
  }

  /// Frames queued through this dispatcher (not those run in place).
  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  /// Time spent waiting for the pipe, sampled only over frames that found
  /// it busy (excludes the frame's own serialization and port latency).
  /// Empty in passthrough mode or when the pipe never saturated.
  [[nodiscard]] const util::SampleSet& queue_delay_ms() const { return queue_delay_ms_; }
  [[nodiscard]] double queue_delay_p99_ms() const {
    return queue_delay_ms_.empty() ? 0.0 : queue_delay_ms_.quantile(0.99);
  }

 private:
  sim::EventQueue& queue_;
  util::SimTime serialization_;
  util::SimTime busy_until_ = 0;
  std::uint64_t frames_ = 0;
  util::SampleSet queue_delay_ms_;
};

}  // namespace drowsy::netsim
