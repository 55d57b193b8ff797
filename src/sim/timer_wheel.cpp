#include "sim/timer_wheel.hpp"

#include <algorithm>
#include <cassert>

namespace drowsy::sim {

namespace {

/// Position of the lowest set bit, or -1 when the bitmap is empty.  In a
/// kSpan0-aligned L0 window, bit position == offset from the window base,
/// so the lowest bit is the earliest pending timestamp.
template <std::size_t N>
int first_set(const std::array<std::uint64_t, N>& bits) {
  for (std::size_t w = 0; w < N; ++w) {
    if (bits[w] != 0) {
      return static_cast<int>(w * 64) + std::countr_zero(bits[w]);
    }
  }
  return -1;
}

/// Circular variant for L1, whose window generally starts mid-cycle:
/// returns the distance (in slots, 0-based) from `start` to the first
/// set bit at-or-after it, wrapping around; -1 when empty.
template <std::size_t N>
int first_set_circular(const std::array<std::uint64_t, N>& bits, unsigned start) {
  constexpr unsigned kBits = static_cast<unsigned>(N) * 64;
  const unsigned w0 = start / 64;
  // Pass 1: positions [start, kBits).
  std::uint64_t word = bits[w0] & (~std::uint64_t{0} << (start % 64));
  for (unsigned w = w0;;) {
    if (word != 0) {
      const unsigned pos = w * 64 + static_cast<unsigned>(std::countr_zero(word));
      return static_cast<int>((pos - start) & (kBits - 1));
    }
    if (++w == N) break;
    word = bits[w];
  }
  // Pass 2 (wrapped): positions [0, start).
  for (unsigned w = 0; w <= w0; ++w) {
    word = bits[w];
    if (w == w0) word &= ~(~std::uint64_t{0} << (start % 64));
    if (word != 0) {
      const unsigned pos = w * 64 + static_cast<unsigned>(std::countr_zero(word));
      return static_cast<int>((pos - start) & (kBits - 1));
    }
  }
  return -1;
}

template <std::size_t N>
void set_bit(std::array<std::uint64_t, N>& bits, unsigned pos) {
  bits[pos / 64] |= std::uint64_t{1} << (pos % 64);
}

template <std::size_t N>
bool test_bit(const std::array<std::uint64_t, N>& bits, unsigned pos) {
  return (bits[pos / 64] >> (pos % 64)) & 1u;
}

template <std::size_t N>
void clear_bit(std::array<std::uint64_t, N>& bits, unsigned pos) {
  bits[pos / 64] &= ~(std::uint64_t{1} << (pos % 64));
}

}  // namespace

void TimerWheel::insert(std::uint32_t idx) {
  const EventRecord& rec = slab_[idx];
  assert(rec.next == kNoEvent && "record must be unlinked");
  if (rec.at < l0_end_) {
    assert(rec.at >= l0_base() && "deadline below the L0 window");
    push_l0(idx, rec.at);
  } else if (rec.at < l1_end()) {
    push_l1(idx, rec.at);
  } else {
    push_far(idx, rec.at, rec.seq);
  }
}

void TimerWheel::push_l0(std::uint32_t idx, util::SimTime at) {
  const unsigned slot = static_cast<unsigned>(at & (kSlots0 - 1));
  if (!test_bit(l0_bits_, slot)) {
    set_bit(l0_bits_, slot);
    l0_head_[slot] = idx;
  } else {
    slab_[l0_tail_[slot]].next = idx;
  }
  l0_tail_[slot] = idx;
}

void TimerWheel::push_l1(std::uint32_t idx, util::SimTime at) {
  const unsigned slot = static_cast<unsigned>((at >> kLog0) & (kSlots1 - 1));
  if (!test_bit(l1_bits_, slot)) {
    set_bit(l1_bits_, slot);
    l1_head_[slot] = idx;
  } else {
    slab_[l1_tail_[slot]].next = idx;
  }
  l1_tail_[slot] = idx;
}

void TimerWheel::push_far(std::uint32_t idx, util::SimTime at, std::uint64_t seq) {
  far_.push_back(FarEntry{at, seq, idx});
  std::push_heap(far_.begin(), far_.end(), &TimerWheel::far_later);
  ++stats_.far_events;
}

void TimerWheel::refill_from_far() {
  // Pops come out in (at, seq) order, so bucket appends stay seq-sorted.
  while (!far_.empty() && far_.front().at < l1_end()) {
    std::pop_heap(far_.begin(), far_.end(), &TimerWheel::far_later);
    const FarEntry entry = far_.back();
    far_.pop_back();
    if (entry.at < l0_end_) {
      push_l0(entry.idx, entry.at);
    } else {
      push_l1(entry.idx, entry.at);
    }
    ++stats_.far_refills;
  }
}

void TimerWheel::spill_to_l0(std::uint32_t chain) {
  while (chain != kNoEvent) {
    const std::uint32_t next = slab_[chain].next;
    slab_[chain].next = kNoEvent;
    assert(slab_[chain].at >= l0_base() && slab_[chain].at < l0_end_);
    push_l0(chain, slab_[chain].at);
    chain = next;
  }
}

std::uint32_t TimerWheel::take_due_chain(util::SimTime bound) {
  for (;;) {
    // Nearest tier first: the lowest set L0 bit is the earliest deadline.
    const int bit = first_set(l0_bits_);
    if (bit >= 0) {
      const util::SimTime at = l0_base() + bit;
      if (at > bound) return kNoEvent;
      const unsigned slot = static_cast<unsigned>(bit);
      const std::uint32_t head = l0_head_[slot];
      clear_bit(l0_bits_, slot);
      return head;
    }
    // L0 exhausted: cascade the next occupied L1 block, if it is due.
    const std::int64_t start_block = l0_end_ >> kLog0;
    const int dist = first_set_circular(
        l1_bits_, static_cast<unsigned>(start_block & (kSlots1 - 1)));
    if (dist >= 0) {
      const std::int64_t block = start_block + dist;
      const util::SimTime block_time = block << kLog0;
      if (block_time > bound) return kNoEvent;
      const unsigned slot = static_cast<unsigned>(block & (kSlots1 - 1));
      std::uint32_t chain = l1_head_[slot];
      clear_bit(l1_bits_, slot);
      l0_end_ = block_time + kSpan0;
      ++stats_.cascades;
      // The L1 horizon moved with l0_end_; pull newly covered far events
      // first — they cannot land in L0 (their deadlines sit at or beyond
      // the old horizon), so the cascade chain keeps bucket seq order.
      refill_from_far();
      spill_to_l0(chain);
      continue;
    }
    // Both wheels empty: jump the windows to the far heap's front.
    if (far_.empty() || far_.front().at > bound) return kNoEvent;
    l0_end_ = align_up(far_.front().at);
    ++stats_.re_anchors;
    refill_from_far();
  }
}

void TimerWheel::advance_to(util::SimTime t) {
  if (t < l0_end_) return;
  assert(!any_bit(l0_bits_) && "an L0 event is due before t");
  const std::int64_t block = t >> kLog0;
  std::uint32_t chain = kNoEvent;
  if (block - (l0_end_ >> kLog0) < static_cast<std::int64_t>(kSlots1)) {
    // Blocks before t's are empty (nothing is due by t); t's own block
    // holds only later deadlines and moves down into L0.
    const unsigned slot = static_cast<unsigned>(block & (kSlots1 - 1));
    if (test_bit(l1_bits_, slot)) {
      chain = l1_head_[slot];
      clear_bit(l1_bits_, slot);
      ++stats_.cascades;
    }
  } else {
    assert(!any_bit(l1_bits_) && "an L1 event is due before t");
  }
  l0_end_ = align_up(t);
  ++stats_.re_anchors;
  // As in a cascade: far events newly covered sit at or beyond the old L1
  // horizon, hence (when t was inside it) beyond L0 too.
  refill_from_far();
  spill_to_l0(chain);
}

}  // namespace drowsy::sim
