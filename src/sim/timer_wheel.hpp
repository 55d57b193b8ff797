// Hierarchical timing wheel + far-future heap over slab event records.
//
// The ordering structure of the event core for everything not known a
// batch ahead.  Three tiers, nearest first:
//
//   L0  1024 slots x 1 ms   (~1 s)    one slot == one exact timestamp;
//                                      insertion is O(1) list append
//   L1  1024 slots x 1.024 s (~17.5 m) one slot == one L0-sized block of
//                                      timestamps; cascaded into L0 when
//                                      the clock reaches the block
//   far  binary heap on (at, seq)      everything beyond the L1 horizon
//                                      (hour boundaries, next-day work)
//
// Why this shape: what stays on the wheel is mostly seconds-or-less
// ahead — switch frame deliveries at the current instant, suspend checks
// one interval out, resume and suspend transitions — so it lands in
// L0/L1 and never touches the heap: O(1) appends instead of an O(log n)
// sift per event.  The one bulk source that was an hour ahead, request
// arrivals, goes to EventQueue's stream instead; the heap keeps the
// hour-boundary and long-timer remainder.  Events are identified by
// EventSlab indices and chained through their records' `next` links —
// the wheel owns no storage.
//
// Exact (time, seq) dispatch order — the repo-wide determinism contract —
// is preserved structurally:
//   * a bucket is only ever appended to, and every append source is
//     seq-monotonic: direct inserts arrive in seq order over time, a
//     cascade redistributes an (already seq-sorted) L1 chain in order,
//     and far-heap refills pop in (at, seq) order;
//   * a timestamp enters a bucket's coverage exactly once (windows only
//     move forward, whether by a cascade, a jump to the far heap or
//     advance_to), so refilled events (older seqs) always land before
//     later direct inserts;
// hence every L0 slot chain is (at fixed time) seq-sorted, and scanning
// slots in time order yields the exact heap order.  The differential
// oracle in tests/sim/ checks this against the legacy heap queue on
// randomized schedules.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/event_slab.hpp"
#include "util/sim_time.hpp"

namespace drowsy::sim {

class TimerWheel {
 public:
  static constexpr int kLog0 = 10;                        ///< L0 slot = 1 ms, 1024 slots
  static constexpr int kLog1 = 10;                        ///< L1 = 1024 slots of L0-span
  static constexpr std::uint32_t kSlots0 = 1u << kLog0;
  static constexpr std::uint32_t kSlots1 = 1u << kLog1;
  static constexpr util::SimTime kSpan0 = util::SimTime{1} << kLog0;
  static constexpr util::SimTime kSpan1 = util::SimTime{1} << (kLog0 + kLog1);

  /// Structural counters (deterministic — they count slab/wheel
  /// operations, not wall time).  Surfaced by EventQueue::core_stats.
  struct Stats {
    std::uint64_t cascades = 0;     ///< L1 blocks redistributed into L0
    std::uint64_t re_anchors = 0;   ///< window jumps: to the far heap's front
                                    ///< on an empty wheel, or by advance_to
    std::uint64_t far_events = 0;   ///< events that entered the far heap
    std::uint64_t far_refills = 0;  ///< events moved heap -> wheel on window advance
  };

  TimerWheel(EventSlab& slab, util::SimTime start)
      : slab_(slab), l0_end_(align_up(start)) {}

  /// File the record at `idx` (at/seq already set, next == kNoEvent) into
  /// the tier covering its deadline.
  void insert(std::uint32_t idx);

  /// Detach and return the chain (one exact timestamp, seq-sorted) of the
  /// earliest pending deadline <= `bound`; kNoEvent when nothing is due.
  /// Advances the wheel windows as needed, but never past `bound`, so a
  /// bounded caller (run_until) leaves the windows at positions the clock
  /// will actually reach.
  [[nodiscard]] std::uint32_t take_due_chain(util::SimTime bound);

  /// Move L0's window forward to cover `t`, cascading the L1 block that
  /// holds `t` and refilling from the far heap as a cascade does.
  /// Precondition: nothing pending at or before `t` — the caller is
  /// about to dispatch an event at `t` from outside the wheel.
  void advance_to(util::SimTime t);

  [[nodiscard]] bool empty() const {
    return !any_bit(l0_bits_) && !any_bit(l1_bits_) && far_.empty();
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  using Bitmap0 = std::array<std::uint64_t, kSlots0 / 64>;
  using Bitmap1 = std::array<std::uint64_t, kSlots1 / 64>;

  struct FarEntry {
    util::SimTime at;
    std::uint64_t seq;
    std::uint32_t idx;
  };

  /// std::push_heap/pop_heap comparator: max-heap under "later", so the
  /// smallest (at, seq) sits at the front.
  [[nodiscard]] static bool far_later(const FarEntry& a, const FarEntry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  [[nodiscard]] util::SimTime l0_base() const { return l0_end_ - kSpan0; }
  [[nodiscard]] util::SimTime l1_end() const { return l0_end_ + kSpan1; }

  /// Smallest multiple of kSpan0 strictly greater than `t`.
  [[nodiscard]] static util::SimTime align_up(util::SimTime t) {
    return ((t >> kLog0) + 1) << kLog0;
  }

  template <std::size_t N>
  [[nodiscard]] static bool any_bit(const std::array<std::uint64_t, N>& bits) {
    for (const std::uint64_t w : bits) {
      if (w != 0) return true;
    }
    return false;
  }

  void push_l0(std::uint32_t idx, util::SimTime at);
  void push_l1(std::uint32_t idx, util::SimTime at);
  void push_far(std::uint32_t idx, util::SimTime at, std::uint64_t seq);
  /// Pop every far-heap event now covered by the (advanced) L1 horizon
  /// into the wheel, in (at, seq) order.
  void refill_from_far();
  /// File a detached L1 chain, which the current L0 window covers, into L0.
  void spill_to_l0(std::uint32_t chain);

  EventSlab& slab_;
  util::SimTime l0_end_;  ///< L0 covers [l0_end - kSpan0, l0_end); always kSpan0-aligned

  std::array<std::uint32_t, kSlots0> l0_head_;
  std::array<std::uint32_t, kSlots0> l0_tail_;
  Bitmap0 l0_bits_{};
  std::array<std::uint32_t, kSlots1> l1_head_;
  std::array<std::uint32_t, kSlots1> l1_tail_;
  Bitmap1 l1_bits_{};
  std::vector<FarEntry> far_;  ///< min-heap on (at, seq) via std::*_heap

  Stats stats_;
};

}  // namespace drowsy::sim
