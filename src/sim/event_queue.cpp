#include "sim/event_queue.hpp"

#include <algorithm>

namespace speedbal {

void EventQueue::run_until(SimTime t) {
  while (!heap_.empty() && heap_[0].time <= t) run_next();
  if (now_ < t) now_ = t;
}

void EventQueue::run_all() {
  while (run_next()) {
  }
}

EventHandle EventQueue::reschedule(EventHandle h, SimTime t) {
  if (t < now_)
    throw std::invalid_argument("EventQueue: reschedule in the past");
  if (!h.valid() || h.slot >= slots_.size() || slots_[h.slot].seq != h.seq)
    return EventHandle{};  // Dead handle; the caller must schedule fresh.
  const std::uint64_t seq = next_seq_++;
  slots_[h.slot].seq = seq;
  // Overwrite the key in place and restore the heap property: no slot
  // recycle, no callable move.
  const std::uint32_t pos = slot_pos_[h.slot];
  const HeapEntry e{t, seq, h.slot};
  const HeapEntry old = heap_[pos];
  heap_[pos] = e;
  if (before(e, old))
    sift_up(pos);
  else
    sift_down(pos);
  return EventHandle{t, seq, h.slot};
}

void EventQueue::sift_up(std::size_t i) {
  HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

/// Index of the smallest child of `i`, or `n` if `i` is a leaf.
std::size_t EventQueue::min_child(std::size_t i, std::size_t n) const {
  const std::size_t first = kArity * i + 1;
  if (first >= n) return n;
  const std::size_t last = std::min(first + kArity, n);
  std::size_t best = first;
  for (std::size_t c = first + 1; c < last; ++c)
    if (before(heap_[c], heap_[best])) best = c;
  return best;
}

void EventQueue::sift_down(std::size_t i) {
  HeapEntry e = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t child = min_child(i, n);
    if (child >= n || !before(heap_[child], e)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

void EventQueue::pop_root() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Floyd's hole scheme: walk the hole from the root down the min-child
  // path to a leaf, then drop the tail entry in and bubble it up. The tail
  // of a min-heap almost always belongs near the bottom, so the bubble-up
  // usually exits immediately.
  std::size_t hole = 0;
  std::size_t child;
  while ((child = min_child(hole, n)) < n) {
    place(hole, heap_[child]);
    hole = child;
  }
  place(hole, last);
  sift_up(hole);
}

void EventQueue::heap_erase(std::size_t i) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // Erased the tail entry.
  heap_[i] = last;
  slot_pos_[last.slot] = static_cast<std::uint32_t>(i);
  // The moved entry may need to travel either way relative to position i.
  if (i > 0 && before(heap_[i], heap_[(i - 1) / kArity]))
    sift_up(i);
  else
    sift_down(i);
}

}  // namespace speedbal
