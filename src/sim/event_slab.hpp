// Slab storage for simulation event records.
//
// The event core stores every pending event as a tagged record — a small
// enum (obs::EventTag) plus a payload union (util::InlineFn's inline
// buffer / heap pointer) — in chunked slab storage addressed by 32-bit
// index.  Chunks are never reallocated, so records have stable addresses
// for the lifetime of the queue (handlers executing out of a record can
// schedule new events, growing the slab, without invalidating anything),
// and freed slots are recycled through an intrusive free list threaded
// through the records' `next` links.  The same `next` field links records
// into timer-wheel buckets while they are pending, so a record costs no
// out-of-band node allocation in either state.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/event_tag.hpp"
#include "util/inline_fn.hpp"
#include "util/sim_time.hpp"

namespace drowsy::sim {

/// Sentinel slab index: "no record" / end of chain.
inline constexpr std::uint32_t kNoEvent = UINT32_MAX;

/// One scheduled event.  (at, seq) is the total dispatch order the whole
/// repo's determinism rests on; `next` chains records into a wheel bucket
/// (pending) or the free list (recycled); `lead` is how far ahead of its
/// deadline the event was queued (saturated at UINT32_MAX ms, and stored
/// in what would otherwise be padding); `tag` feeds the optional
/// obs::EventProfile attribution.
struct EventRecord {
  util::SimTime at = 0;
  std::uint64_t seq = 0;
  std::uint32_t next = kNoEvent;
  std::uint32_t lead = 0;
  obs::EventTag tag = obs::EventTag::Other;
  util::InlineFn fn;
};

/// Chunked arena of EventRecords with slot recycling.
class EventSlab {
 public:
  static constexpr std::uint32_t kChunkShift = 9;  // 512 records per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  /// Claim a slot (recycled or fresh).  The record's `fn` is empty and
  /// `next` is kNoEvent; the caller fills the rest.
  [[nodiscard]] std::uint32_t alloc() {
    if (free_head_ != kNoEvent) {
      const std::uint32_t idx = free_head_;
      EventRecord& rec = (*this)[idx];
      free_head_ = rec.next;
      rec.next = kNoEvent;
      return idx;
    }
    const std::uint32_t idx = top_;
    if ((idx >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<EventRecord[]>(kChunkSize));
    }
    ++top_;
    return idx;
  }

  /// Return a slot to the free list.  The callback must already have been
  /// moved out or is dropped here.
  void free(std::uint32_t idx) {
    EventRecord& rec = (*this)[idx];
    rec.fn.reset();
    rec.next = free_head_;
    free_head_ = idx;
  }

  [[nodiscard]] EventRecord& operator[](std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }
  [[nodiscard]] const EventRecord& operator[](std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }

  /// High-water mark of slots ever claimed (capacity actually built).
  [[nodiscard]] std::uint32_t high_water() const { return top_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

 private:
  std::vector<std::unique_ptr<EventRecord[]>> chunks_;
  std::uint32_t top_ = 0;
  std::uint32_t free_head_ = kNoEvent;
};

}  // namespace drowsy::sim
