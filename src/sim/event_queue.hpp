// The asynchronous engine's event timeline.
//
// Events pop in (time, push order): ties at one tick are processed in the
// order they were scheduled, the contract the original binary-heap engine
// implemented, preserved here so traces stay bit-identical.
//
// A hierarchical timing wheel over the whole 64-bit time range: kLevels
// levels of kSlots slots, each slot a vector appended in push order. An
// event at time t sits on the level of the highest 8-bit digit in which t
// differs from the cursor, in that digit's slot, so level 0 is exactly the
// cursor's 256-tick window and a push is O(1) for any t — a delivery within
// tau or an adversary wake-up 2^62 ticks away. When level 0 runs dry the
// cursor moves to the start of the next occupied slot on the lowest
// occupied level and that slot spills, in order, into the (empty) levels
// below. Every pending event of one tick therefore sits in one slot in push
// order, which is the tie-break, with no sequence number; each event moves
// down at most kLevels - 1 times.
//
// A test pins the pop order against a stable-sort reference on random
// workloads, for tau from 1 to 2^32 and wake-ups up to 2^62.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/message.hpp"
#include "sim/types.hpp"
#include "support/check.hpp"

namespace rise::sim {

enum class EventKind : std::uint8_t { kWake, kDeliver };

struct Event {
  Time t = 0;
  EventKind kind = EventKind::kWake;
  NodeId node = kInvalidNode;  // wake target / delivery receiver
  Port port = kInvalidPort;    // receiver port (deliver only)
  Message msg;                 // (deliver only)
};

class EventQueue {
 public:
  /// Holds no storage; call reset() before pushing. Exists so a
  /// RunWorkspace can hold a queue between runs.
  EventQueue() = default;

  /// Re-arms the queue for a new run at time 0. Leftover events from an
  /// aborted run are discarded; the slots keep their allocated capacity, so
  /// a recycled queue pushes and pops without touching the allocator in
  /// steady state. Only slots that may still hold events are cleared.
  void reset();

  /// Precondition: t is never in the past (t >= the time of the last popped
  /// event — enforced with an always-on check, since a stale push would
  /// silently land in the wrong slot). Inline, and constructing the Event in
  /// place inside its slot — one emplace and one front/drop per simulated
  /// event is the engine's innermost loop, and an Event is large enough
  /// (inline payload included) that sparing the temporary-and-move shows up.
  void emplace(Time t, EventKind kind, NodeId node, Port port, Message msg) {
    RISE_CHECK_MSG(t >= cursor_, "push at time "
                                     << t << " precedes the cursor (" << cursor_
                                     << ")");
    ++size_;
    if ((t ^ cursor_) < kSlots) [[likely]] {
      slots_[t % kSlots].emplace_back(t, kind, node, port, std::move(msg));
      ++level_size_[0];
    } else {
      emplace_far(t, kind, node, port, std::move(msg));
    }
  }

  void push(Event ev) {
    emplace(ev.t, ev.kind, ev.node, ev.port, std::move(ev.msg));
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The least event in (t, push order), in place. !empty() only. The
  /// reference is valid until the next emplace/drop_front — callers copy the
  /// scalars and steal the Message, then drop_front() *before* dispatching
  /// handlers (which may push and reallocate the underlying storage).
  Event& front() {
    RISE_CHECK_MSG(size_ != 0, "pop on empty event queue");
    auto& slot = slots_[cursor_ % kSlots];
    if (cursor_pos_ < slot.size()) return slot[cursor_pos_];
    return front_advance();
  }

  /// Discards front() (whose Message the caller has typically stolen).
  void drop_front() {
    --size_;
    ++cursor_pos_;
    --level_size_[0];
  }

  /// Removes and returns the least event in (t, push order). !empty() only.
  Event pop() {
    Event ev = std::move(front());
    drop_front();
    return ev;
  }

  /// Events in level 0, the cursor's 256-tick window. The event-loop
  /// profiler samples these to show near-vs-far occupancy.
  std::size_t ring_occupancy() const { return level_size_[0]; }
  /// Events on the higher levels, beyond the cursor's window.
  std::size_t overflow_occupancy() const { return size_ - level_size_[0]; }

 private:
  static constexpr unsigned kDigitBits = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kDigitBits;
  static constexpr unsigned kLevels = 64 / kDigitBits;

  /// emplace's slow path: an event beyond the cursor's window. Out of line
  /// so it doesn't price emplace out of send_from's inlining budget.
  void emplace_far(Time t, EventKind kind, NodeId node, Port port,
                   Message msg);
  /// The slot t belongs in at the current cursor; counts it on its level.
  std::vector<Event>& slot_for(Time t);
  /// front's slow path: the current tick is drained — step to the next
  /// occupied tick of level 0, spilling higher slots until one surfaces.
  Event& front_advance();

  std::vector<std::vector<Event>> slots_;  // kLevels * kSlots, level-major
  std::array<std::size_t, kLevels> level_size_{};  // events on each level
  std::size_t cursor_pos_ = 0;  // read index into the current tick's slot
  Time cursor_ = 0;             // time floor: no event precedes cursor_
  std::size_t size_ = 0;
};

}  // namespace rise::sim
