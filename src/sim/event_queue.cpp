#include "sim/event_queue.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace rise::sim {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

void EventQueue::reset(Time max_delay) {
  // Drop leftovers (an exception can abort a run mid-timeline) but keep the
  // per-bucket and heap capacity for the next run.
  for (auto& slot : buckets_) slot.clear();
  heap_.clear();
  size_ = 0;
  ring_size_ = 0;
  cursor_pos_ = 0;
  cursor_ = 0;
  // B > max_delay so a delivery scheduled while processing time `cursor_`
  // can never wrap onto the bucket currently being drained. Above
  // kMaxBucketSpan one bucket holds only the current tick; everything later
  // waits in the overflow heap.
  num_buckets_ = max_delay <= kMaxBucketSpan
                     ? std::max<std::size_t>(64, next_pow2(max_delay + 2))
                     : 1;
  mask_ = num_buckets_ - 1;
  if (buckets_.size() < num_buckets_) buckets_.resize(num_buckets_);
}

Event& EventQueue::front_advance() {
  for (;;) {
    auto& slot = buckets_[cursor_ & mask_];
    if (cursor_pos_ < slot.size()) return slot[cursor_pos_];
    // The current tick is drained; free the slot for reuse one lap later.
    slot.clear();
    cursor_pos_ = 0;
    if (ring_size_ != 0) {
      ++cursor_;
    } else if (!heap_.empty()) {
      cursor_ = heap_.front().t;  // leap over the idle gap
    } else {
      RISE_CHECK_MSG(false, "event queue size corrupted");
    }
    migrate();
  }
}

void EventQueue::migrate() {
  while (!heap_.empty() && heap_.front().t - cursor_ < num_buckets_) {
    // Heap pops ascend in (t, seq), and every pending direct push carries a
    // larger seq than any overflow event of the same tick (overflow events
    // were pushed before the cursor could reach their horizon), so plain
    // appends keep each bucket seq-sorted.
    Event ev = heap_pop();
    buckets_[ev.t & mask_].push_back(std::move(ev));
    ++ring_size_;
  }
}

void EventQueue::emplace_overflow(Time t, std::uint64_t seq, EventKind kind,
                                  NodeId node, Port port, Message msg) {
  heap_.emplace_back(t, seq, kind, node, port, std::move(msg));
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
}

Event EventQueue::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

}  // namespace rise::sim
