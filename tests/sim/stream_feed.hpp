// Test-side pre-sequenced stream for the event-queue differentials.
//
// feed() hands one batch of events to the production queue as a stream
// (EventQueue::set_stream) and to the frozen reference queue as the
// schedule_at calls, in k order, that the stream stands for.  The two
// must then dispatch identically.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/event_tag.hpp"
#include "reference_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/sim_time.hpp"

namespace drowsy::testing {

class StreamFeed final : public sim::EventQueue::StreamHandler {
 public:
  /// Entry k is due at times[k]; body(q, k) builds its handler on queue q
  /// (called once per queue).  The previous batch must be drained.
  template <typename Q, typename Body>
  void feed(sim::EventQueue& qn, Q& qr, const std::vector<util::SimTime>& times,
            obs::EventTag tag, Body&& body) {
    entries_.clear();
    bodies_.clear();
    fired_ = 0;
    for (std::uint32_t k = 0; k < times.size(); ++k) {
      entries_.push_back({times[k], k});
      bodies_.push_back(body(qn, k));
      qr.schedule_at(times[k], body(qr, k), tag);
    }
    std::sort(entries_.begin(), entries_.end());
    qn.set_stream(entries_, *this, tag);
  }

  [[nodiscard]] bool drained() const { return fired_ == entries_.size(); }

 private:
  void fire(std::uint32_t k) override {
    ++fired_;
    bodies_[k]();
  }

  std::vector<sim::EventQueue::StreamEntry> entries_;
  std::vector<std::function<void()>> bodies_;
  std::size_t fired_ = 0;
};

}  // namespace drowsy::testing
