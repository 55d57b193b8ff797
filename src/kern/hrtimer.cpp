#include "kern/hrtimer.hpp"

#include <cassert>

namespace drowsy::kern {

void HrTimerQueue::arm(HrTimer& timer, util::SimTime expiry) {
  assert(!timer.armed() && "timer already armed");
  timer.expiry = expiry;
  timer.id = next_id_++;
  timer.enqueued = true;
  timers_.insert(&timer);
}

void HrTimerQueue::cancel(HrTimer& timer) {
  if (!timer.armed()) return;
  timer.enqueued = false;
  timers_.erase(&timer);
}

HrTimer* HrTimerQueue::peek() const {
  return timers_.empty() ? nullptr : *timers_.begin();
}

HrTimer* HrTimerQueue::peek_filtered(
    const std::function<bool(const HrTimer&)>& keep) const {
  for (HrTimer* t : timers_) {
    if (keep(*t)) return t;
  }
  return nullptr;
}

std::size_t HrTimerQueue::fire_due(util::SimTime now) {
  std::size_t fired = 0;
  while (HrTimer* t = peek()) {
    if (t->expiry > now) break;
    t->enqueued = false;
    timers_.erase(timers_.begin());
    ++fired;
    if (t->callback) t->callback(now);
  }
  return fired;
}

void HrTimerQueue::for_each(const std::function<void(const HrTimer&)>& visit) const {
  for (const HrTimer* t : timers_) visit(*t);
}

}  // namespace drowsy::kern
