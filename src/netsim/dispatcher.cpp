#include "netsim/dispatcher.hpp"

#include <algorithm>
#include <utility>

namespace drowsy::netsim {

void EventQueueDispatcher::schedule_after(util::SimTime delay, util::InlineFn fn,
                                          obs::EventTag tag) {
  ++frames_;
  if (serialization_ <= 0) {
    // Passthrough: identical (time, seq) ordering to the bare queue.
    queue_.schedule_after(delay, std::move(fn), tag);
    return;
  }
  const util::SimTime now = queue_.now();
  const util::SimTime start = std::max(now, busy_until_);
  busy_until_ = start + serialization_;
  // Only frames that found the pipe busy carry information; sampling the
  // zero delay of every ambient request would bury the storm's queueing
  // under tens of thousands of uncontended frames.
  if (start > now) queue_delay_ms_.add(static_cast<double>(start - now));
  // The frame leaves the pipe after its serialization, then takes the
  // requested port latency to reach the destination NIC.
  queue_.schedule_at(busy_until_ + delay, std::move(fn), tag);
}

}  // namespace drowsy::netsim
