// Small-buffer-optimized move-only callable — the event core's payload.
//
// Every simulation event carries exactly one nullary callback.  With
// std::function, any capture list past ~two pointers heap-allocates at
// schedule time and frees at dispatch — one malloc/free round trip per
// event on the hottest path in the repo.  InlineFn embeds up to
// kInlineBytes of capture state directly in the event record (a union of
// inline storage and a heap pointer, discriminated by the per-type ops
// table), so the simulator's real callbacks — `this` plus a few scalars,
// or `this` + generation counter + a completion std::function — never
// touch the allocator.  Truly large captures still work: they take the
// heap branch, which is the rare case the slab design budgets for.
//
// Move-only by design: events are scheduled once and dispatched once, so
// copyability would only invite accidental capture duplication.  Moving
// relocates the inline buffer via the stored relocate op (or steals the
// heap pointer), which is what lets records live in slab storage and be
// pulled out by value at dispatch.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace drowsy::util {

class InlineFn {
 public:
  /// Inline capacity.  The hot scheduling sites fit: a switch frame
  /// delivery's {pointer, net::Packet} is 40 bytes (pinned by
  /// tests/net/test_sdn_switch.cpp), and a std::function capture fits
  /// too.  Captures beyond it fall back to one heap allocation,
  /// preserving correctness.
  static constexpr std::size_t kInlineBytes = 64;

  InlineFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    emplace(std::forward<F>(f));
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  InlineFn(InlineFn&& other) noexcept { move_from(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  ~InlineFn() { reset(); }

  /// Replace the stored callable (constructed in place — no intermediate
  /// InlineFn, so schedule sites pay one move of the lambda itself).
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "InlineFn callable must be invocable as void()");
    reset();
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_.bytes)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      storage_.ptr = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

  /// Adopt another InlineFn wholesale (no re-wrapping): keeps the
  /// type-erased Dispatcher path from nesting InlineFn inside InlineFn.
  void emplace(InlineFn&& other) { *this = std::move(other); }

  /// Invoke.  Precondition: non-empty.
  void operator()() { ops_->invoke(&storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// True when the callable lives in the inline buffer (no allocation).
  [[nodiscard]] bool is_inline() const { return ops_ != nullptr && ops_->inline_stored; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

 private:
  union Storage {
    alignas(alignof(std::max_align_t)) unsigned char bytes[kInlineBytes];
    void* ptr;
  };

  struct Ops {
    void (*invoke)(Storage*);
    void (*destroy)(Storage*);
    void (*relocate)(Storage* dst, Storage* src);  // src left destroyed
    bool inline_stored;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static Fn* inline_ptr(Storage* s) {
    return std::launder(reinterpret_cast<Fn*>(s->bytes));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](Storage* s) { (*inline_ptr<Fn>(s))(); },
      [](Storage* s) { inline_ptr<Fn>(s)->~Fn(); },
      [](Storage* dst, Storage* src) {
        ::new (static_cast<void*>(dst->bytes)) Fn(std::move(*inline_ptr<Fn>(src)));
        inline_ptr<Fn>(src)->~Fn();
      },
      true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](Storage* s) { (*static_cast<Fn*>(s->ptr))(); },
      [](Storage* s) { delete static_cast<Fn*>(s->ptr); },
      [](Storage* dst, Storage* src) { dst->ptr = src->ptr; },
      false,
  };

  void move_from(InlineFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(&storage_, &other.storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  Storage storage_;
  const Ops* ops_ = nullptr;
};

}  // namespace drowsy::util
