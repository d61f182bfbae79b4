// The asynchronous engine's event timeline.
//
// Events are totally ordered by (time, seq): seq is a globally increasing
// sequence number assigned at push time, so ties at one tick are processed
// in schedule order — the exact contract the original binary-heap engine
// implemented, preserved here so traces stay bit-identical.
//
// A calendar (bucket) queue: every *message* delay lies in [1, tau], so a
// delivery scheduled at time `now` lands within (now, now + tau], and a ring
// of B > tau buckets indexed by t mod B gives O(1) push and amortized O(1)
// pop. Adversary wake-ups may lie arbitrarily far in the future; those wait
// in an overflow heap (std::push_heap / std::pop_heap over a plain vector)
// and migrate into the ring, in (t, seq) order, when the cursor brings them
// inside the horizon. For tau > kMaxBucketSpan the ring is a single bucket,
// so every event travels through the overflow heap the same way.
//
// A test pins the (time, seq) order against a stable-sort reference on
// random workloads, on both sides of kMaxBucketSpan.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/message.hpp"
#include "sim/types.hpp"
#include "support/check.hpp"

namespace rise::sim {

enum class EventKind : std::uint8_t { kWake, kDeliver };

struct Event {
  Time t = 0;
  std::uint64_t seq = 0;  // tie-break: engine processes in schedule order
  EventKind kind = EventKind::kWake;
  NodeId node = kInvalidNode;  // wake target / delivery receiver
  Port port = kInvalidPort;    // receiver port (deliver only)
  Message msg;                 // (deliver only)
};

class EventQueue {
 public:
  /// Largest tau that gets a ring of more than one bucket. Above this, a
  /// mostly-empty ring would cost more to scan than the overflow heap's log.
  static constexpr Time kMaxBucketSpan = 4096;

  explicit EventQueue(Time max_delay) { reset(max_delay); }

  /// Holds no storage; call reset() before pushing. Exists so a
  /// RunWorkspace can hold a queue between runs.
  EventQueue() = default;

  /// Reconfigures for a new run with the given horizon. The ring (which
  /// never shrinks) and the heap keep their allocated capacity (leftover
  /// events from an aborted run are discarded), so a recycled queue pushes
  /// and pops without touching the allocator in steady state.
  void reset(Time max_delay);

  /// Preconditions: t is never in the past (t >= the time of the last
  /// popped event — enforced with an always-on check, since a stale push
  /// would silently land one ring lap late), and deliveries lie within
  /// (now, now + max_delay]. Arbitrary future times (adversary wake-ups)
  /// are accepted. Inline, and constructing the Event in place inside its
  /// bucket — one emplace and one front/drop per simulated event is the
  /// engine's innermost loop, and an Event is large enough (inline payload
  /// included) that sparing the temporary-and-move shows up.
  void emplace(Time t, std::uint64_t seq, EventKind kind, NodeId node,
               Port port, Message msg) {
    RISE_CHECK_MSG(t >= cursor_, "push at time "
                                     << t << " precedes the cursor (" << cursor_
                                     << ")");
    ++size_;
    if (t - cursor_ < num_buckets_) [[likely]] {
      buckets_[t & mask_].emplace_back(t, seq, kind, node, port,
                                       std::move(msg));
      ++ring_size_;
    } else {
      emplace_overflow(t, seq, kind, node, port, std::move(msg));
    }
  }

  void push(Event ev) {
    emplace(ev.t, ev.seq, ev.kind, ev.node, ev.port, std::move(ev.msg));
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The least event in (t, seq) order, in place. !empty() only. The
  /// reference is valid until the next emplace/drop_front — callers copy the
  /// scalars and steal the Message, then drop_front() *before* dispatching
  /// handlers (which may push and reallocate the underlying storage).
  Event& front() {
    RISE_CHECK_MSG(size_ != 0, "pop on empty event queue");
    auto& slot = buckets_[cursor_ & mask_];
    if (cursor_pos_ < slot.size()) return slot[cursor_pos_];
    return front_advance();
  }

  /// Discards front() (whose Message the caller has typically stolen).
  void drop_front() {
    --size_;
    ++cursor_pos_;
    --ring_size_;
  }

  /// Removes and returns the least event in (t, seq) order. !empty() only.
  Event pop() {
    Event ev = std::move(front());
    drop_front();
    return ev;
  }

  /// Events currently in the calendar ring. The event-loop profiler samples
  /// these to show ring-vs-overflow occupancy.
  std::size_t ring_occupancy() const { return ring_size_; }
  /// Events waiting in the overflow heap.
  std::size_t overflow_occupancy() const { return heap_.size(); }

 private:
  /// "a is processed after b" — strict weak order for min-heap-via-max-heap.
  /// Compares only scalars, so it stays valid for events whose Message has
  /// been stolen through front().
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  Event heap_pop();
  /// emplace's slow path: an event beyond the ring's horizon.
  /// Out of line so the push_heap expansion doesn't price emplace out of
  /// send_from's inlining budget.
  void emplace_overflow(Time t, std::uint64_t seq, EventKind kind, NodeId node,
                        Port port, Message msg);
  /// front's slow path: the current bucket is drained — advance the cursor
  /// (or leap over an idle gap to the overflow heap's front) until an event
  /// surfaces.
  Event& front_advance();
  /// Moves overflow events that entered the ring horizon into buckets.
  void migrate();

  std::size_t num_buckets_ = 0;  // power of two > max_delay, or 1
  std::size_t mask_ = 0;
  std::vector<std::vector<Event>> buckets_;
  std::size_t ring_size_ = 0;   // events currently in buckets
  std::size_t cursor_pos_ = 0;  // read index into the current bucket
  Time cursor_ = 0;             // time floor: no event precedes cursor_

  std::vector<Event> heap_;  // overflow: events beyond the ring's horizon
  std::size_t size_ = 0;
};

}  // namespace rise::sim
