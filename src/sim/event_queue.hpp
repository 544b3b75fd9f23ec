#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace speedbal {

/// Move-only callable with small-buffer storage, sized so every hot-path
/// event the Simulator schedules (run-stop, preemption, balancer ticks —
/// lambdas capturing a pointer plus a couple of scalars) fits inline.
/// Larger callables fall back to a single heap allocation; std::function
/// additionally type-erases copyability and (on common ABIs) spills any
/// capture beyond 16 trivially-copyable bytes, which made the event loop
/// allocate on nearly every scheduled stop. Trivially-copyable callables
/// (the overwhelmingly common case) are flagged so moves are a branch plus
/// a memcpy instead of an indirect call.
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 48;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function.
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into `dst` from `src`, destroying `src`. Unused (and
    /// skipped) when `trivial`.
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void*);
    /// Trivially copyable and destructible: relocation is memcpy, no
    /// destructor call needed.
    bool trivial;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* src, void* dst) {
        Fn* f = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>};

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* src, void* dst) {
        *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
      },
      [](void* p) { delete *static_cast<Fn**>(p); },
      // The owning pointer relocates by copy but must not be double-freed,
      // so heap callables always take the indirect path.
      false};

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->trivial)
        std::memcpy(buf_, other.buf_, kInlineSize);
      else
        ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// Handle to a scheduled event; valid until the event fires or is cancelled.
/// Holds the slot index so cancellation is O(log n) without a lookup; the
/// (time, seq) pair doubles as the liveness check (a recycled slot carries a
/// different seq).
struct EventHandle {
  SimTime time = kNever;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  bool valid() const { return time >= 0; }
};

/// Deterministic discrete-event queue ordered by (time, seq), so events at
/// equal times fire in insertion order and simulations stay bit-for-bit
/// reproducible for a given seed.
///
/// An indexed 4-ary min-heap whose callables live in a freelist-recycled
/// slot table, so steady-state scheduling allocates nothing. Each slot
/// records its entry's heap position, which makes cancel and reschedule
/// O(log n) without a lookup.
class EventQueue {
 public:
  /// Schedule `fn` at absolute time `t` (must be >= now()).
  EventHandle schedule(SimTime t, EventFn fn) {
    if (t < now_) throw std::invalid_argument("EventQueue: schedule in the past");
    const std::uint32_t slot = alloc_slot();
    const std::uint64_t seq = next_seq_++;
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.seq = seq;
    heap_push({t, seq, slot});
    return EventHandle{t, seq, slot};
  }

  /// Cancel a pending event; no-op if it already fired or was cancelled.
  void cancel(EventHandle h) {
    if (!h.valid() || h.slot >= slots_.size()) return;
    Slot& s = slots_[h.slot];
    if (s.seq != h.seq) return;  // Already fired, cancelled, or recycled.
    heap_erase(slot_pos_[h.slot]);
    s.fn.reset();
    s.seq = 0;
    free_slots_.push_back(h.slot);
  }

  /// Move a live event to a new time, reusing its slot and callable — the
  /// cheap form of cancel + schedule for the per-dispatch stop-event churn
  /// (no callable move, no slot recycle, an in-place heap reposition).
  /// `h` must be live (not fired, not cancelled); semantics are identical
  /// to cancel(h) followed by schedule(t, same-fn), including the fresh
  /// position in the seq order.
  EventHandle reschedule(EventHandle h, SimTime t);

  /// Pop and execute the earliest event; returns false when empty.
  bool run_next() {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_[0];
    now_ = top.time;
    Slot& s = slots_[top.slot];
    // Move the callable out and release the slot before invoking, so the
    // handler can schedule or cancel events (including at the same
    // timestamp) without touching a live slot.
    EventFn fn = std::move(s.fn);
    s.seq = 0;
    pop_root();
    free_slots_.push_back(top.slot);
    ++executed_;
    fn();
    return true;
  }

  /// True when no events are pending.
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Current simulation time (time of the last event popped).
  SimTime now() const { return now_; }

  /// Time of the earliest pending event, or kNever if empty.
  SimTime next_time() const { return heap_.empty() ? kNever : heap_[0].time; }

  /// Run events until simulation time would exceed `t`; leaves now() == t.
  void run_until(SimTime t);

  /// Run until the queue is empty.
  void run_all();

  /// Total events executed so far (monotonic; for throughput accounting).
  std::uint64_t executed() const { return executed_; }

 private:
  static constexpr std::size_t kArity = 4;

  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;  ///< Seq of the occupying event; 0 = free.
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  std::uint32_t alloc_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slot_pos_.push_back(0);
    return slot;
  }

  void heap_push(const HeapEntry& e) {
    heap_.push_back(e);
    slot_pos_[e.slot] = static_cast<std::uint32_t>(heap_.size() - 1);
    sift_up(heap_.size() - 1);
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  std::size_t min_child(std::size_t i, std::size_t n) const;
  /// Remove the minimum entry (Floyd's hole-push-down; cheaper than a
  /// generic erase at position 0).
  void pop_root();
  void place(std::size_t i, HeapEntry e) {
    heap_[i] = e;
    slot_pos_[e.slot] = static_cast<std::uint32_t>(i);
  }
  /// Remove the heap entry at position `i` (the slot is released by the
  /// caller, which still needs its payload).
  void heap_erase(std::size_t i);

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  /// Heap position of each slot's entry, parallel to slots_; kept out of Slot so sifting touches a dense 4-byte
  /// array instead of 64-byte slots.
  std::vector<std::uint32_t> slot_pos_;
  std::vector<std::uint32_t> free_slots_;


  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;  ///< 0 marks a free slot.
  std::uint64_t executed_ = 0;
};

}  // namespace speedbal
