// High-resolution timer registry, modelled on the Linux hrtimer subsystem.
//
// Guest processes that sleep register a timer that will wake them; the
// suspending module walks this structure (paper §V-B) to compute the
// earliest waking date, filtering out timers owned by blacklisted
// processes.  Timers are kept in a std::set ordered by (expiry, id) — a
// red-black tree, like the kernel's timerqueue — so the walk visits them
// in expiry order.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "util/sim_time.hpp"

namespace drowsy::kern {

using Pid = std::int32_t;

/// One armed timer.  Owned by whoever armed it; the registry holds only a
/// pointer.  A timer must be cancelled (or fired) before destruction.
struct HrTimer {
  util::SimTime expiry = util::kNever;  ///< absolute expiry instant
  Pid owner_pid = 0;                  ///< process that armed the timer
  std::uint64_t id = 0;               ///< registry-assigned, for stable ordering
  std::function<void(util::SimTime)> callback;  ///< invoked on expiry (may be empty)
  bool enqueued = false;              ///< maintained by HrTimerQueue

  [[nodiscard]] bool armed() const { return enqueued; }
};

/// Timer queue ordered by (expiry, id).
class HrTimerQueue {
 public:
  HrTimerQueue() = default;
  HrTimerQueue(const HrTimerQueue&) = delete;
  HrTimerQueue& operator=(const HrTimerQueue&) = delete;

  /// Arm `timer` to fire at `expiry`.  The timer must not already be armed.
  void arm(HrTimer& timer, util::SimTime expiry);

  /// Cancel an armed timer.  No-op if not armed.
  void cancel(HrTimer& timer);

  /// Earliest armed timer, or nullptr when none.
  [[nodiscard]] HrTimer* peek() const;

  /// Earliest armed timer whose owner passes `keep` (the suspending
  /// module's per-process filter), or nullptr.  O(k) in the number of
  /// filtered-out timers preceding the first kept one.
  [[nodiscard]] HrTimer* peek_filtered(
      const std::function<bool(const HrTimer&)>& keep) const;

  /// Fire (and remove) every timer with expiry <= now, invoking callbacks.
  /// Returns the number fired.
  std::size_t fire_due(util::SimTime now);

  [[nodiscard]] std::size_t size() const { return timers_.size(); }
  [[nodiscard]] bool empty() const { return timers_.empty(); }

  /// Visit all armed timers in expiry order.
  void for_each(const std::function<void(const HrTimer&)>& visit) const;

 private:
  struct Earlier {
    bool operator()(const HrTimer* a, const HrTimer* b) const {
      if (a->expiry != b->expiry) return a->expiry < b->expiry;
      return a->id < b->id;
    }
  };

  std::set<HrTimer*, Earlier> timers_;
  std::uint64_t next_id_ = 1;
};

}  // namespace drowsy::kern
