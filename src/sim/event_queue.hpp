// The engines' timing wheel: the asynchronous engine's event timeline and
// the synchronous engine's wake-up and nap-end timers.
//
// Entries pop in (time, push order): ties at one tick are processed in the
// order they were scheduled, the contract the original binary-heap engine
// implemented, preserved here so traces stay bit-identical.
//
// A hierarchical timing wheel over the whole 64-bit time range: kLevels
// levels of kSlots slots, each slot a vector appended in push order. An
// entry at time t sits on the level of the highest 8-bit digit in which t
// differs from the cursor, in that digit's slot, so level 0 is exactly the
// cursor's 256-tick window and a push is O(1) for any t — a delivery within
// tau or an adversary wake-up 2^62 ticks away. When level 0 runs dry the
// cursor moves to the start of the next occupied slot on the lowest
// occupied level and that slot spills, in order, into the (empty) levels
// below. Every pending entry of one tick therefore sits in one slot in push
// order, which is the tie-break, with no sequence number; each entry moves
// down at most kLevels - 1 times. An Event's payload words ride in its
// slot's word buffer (see TimingWheel below).
//
// A test pins the pop order against a stable-sort reference on random
// workloads, for tau from 1 to 2^32 and wake-ups up to 2^62.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "sim/types.hpp"
#include "support/check.hpp"

namespace rise::sim {

enum class EventKind : std::uint8_t { kWake, kDeliver };

struct Event {
  Time t = 0;
  NodeId node = kInvalidNode;  // wake target / delivery receiver
  Port port = kInvalidPort;    // receiver port (deliver only)
  Message msg;                 // (deliver only)
  EventKind kind = EventKind::kWake;
  /// Where msg's words start in the buffer of the slot holding the event;
  /// set by the wheel.
  std::uint32_t word_begin = 0;
};
static_assert(sizeof(Event) <= 48);

/// A synchronous-engine timer: at round t, node becomes a candidate. It is
/// an adversary wake-up or the end of the node's nap; only a node that is
/// not yet awake can be woken, and a napping node is awake, so the kind
/// needs no field.
struct SyncTimer {
  Time t = 0;
  NodeId node = kInvalidNode;
};

/// Entry is any type with a `Time t` member that constructs as
/// Entry(t, args...). An Entry with a `word_begin` member (Event) carries
/// msg.size payload words, which live in a word buffer of the slot holding
/// the entry and move with it when the slot spills. A slot hands its buffer
/// on when it drains, so the buffers retained are bounded by the slots
/// holding words at once, not by all kLevels * kSlots.
///
/// Lifetime rule: the words of the entry front() or front_until() returned
/// stay valid until the next front()/front_until(), pushes included, except
/// a push with words at the cursor's own tick (the async engine makes none:
/// every delivery lands at least one tick after it is sent).
template <class Entry>
class TimingWheel {
 public:
  static constexpr bool kCarriesWords = requires(Entry e) { e.word_begin; };

  /// Holds no storage; call reset() before pushing. Exists so a
  /// RunWorkspace can hold a wheel between runs.
  TimingWheel() = default;

  /// Re-arms the wheel for a new run at time 0. Leftover entries from an
  /// aborted run are discarded; the slots keep their allocated capacity, so
  /// a recycled wheel pushes and pops without touching the allocator in
  /// steady state. Only slots that may still hold entries are cleared.
  void reset();

  /// Precondition: t is never before the cursor, which is at most the time
  /// of the last entry front() or front_until() returned — enforced with an
  /// always-on check, since a stale push would silently land in the wrong
  /// slot. Inline, and constructing the entry in place inside its slot:
  /// one emplace and one front/drop per simulated event is the async
  /// engine's innermost loop.
  template <class... Args>
  void emplace(Time t, Args&&... args) {
    emplace_words(t, 0, std::forward<Args>(args)...);
  }

  /// emplace for an entry whose msg.size is n: returns where the caller
  /// writes its n words (nullptr for none), valid until the next push.
  template <class... Args>
  std::uint64_t* emplace_words(Time t, std::uint32_t n, Args&&... args) {
    admit(t);
    std::size_t slot;
    if ((t ^ cursor_) < kSlots) [[likely]] {
      slot = t % kSlots;
      ++level_size_[0];
    } else {
      slot = far_slot(t);
    }
    Entry& e = slots_[slot].emplace_back(t, std::forward<Args>(args)...);
    if constexpr (kCarriesWords) {
      if (n != 0) return claim_words(slot, e, n);
    }
    return nullptr;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The least entry in (t, push order), in place. !empty() only. The
  /// reference is valid until the next emplace/drop_front — callers copy the
  /// scalars, then drop_front() *before* dispatching handlers (which may
  /// push and reallocate the underlying storage).
  Entry& front() {
    RISE_CHECK_MSG(size_ != 0, "pop on empty timing wheel");
    return *front_until(kNever);
  }

  /// front() if the least entry is due by `limit`, else nullptr (also when
  /// the wheel is empty). The cursor never passes `limit`, so after a
  /// nullptr every time above `limit` can still be pushed.
  Entry* front_until(Time limit) {
    auto& slot = slots_[cursor_ % kSlots];
    if (cursor_pos_ < slot.size()) [[likely]] {
      return cursor_ <= limit ? &slot[cursor_pos_] : nullptr;
    }
    return front_advance(limit);
  }

  /// The words of `front`, the entry front() or front_until() last
  /// returned (see the lifetime rule above).
  const std::uint64_t* front_words(const Entry& front) const
    requires kCarriesWords
  {
    return words_[cursor_ % kSlots].data() + front.word_begin;
  }

  /// Discards the entry front() or front_until() returned.
  void drop_front() {
    --size_;
    ++cursor_pos_;
    --level_size_[0];
  }

  /// Removes and returns the least entry in (t, push order), without its
  /// words. !empty() only.
  Entry pop() {
    Entry e = front();
    drop_front();
    return e;
  }

  /// Entries in level 0, the cursor's 256-tick window. The event-loop
  /// profiler samples these to show near-vs-far occupancy.
  std::size_t ring_occupancy() const { return level_size_[0]; }
  /// Entries on the higher levels, beyond the cursor's window.
  std::size_t overflow_occupancy() const { return size_ - level_size_[0]; }

 private:
  static constexpr unsigned kDigitBits = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kDigitBits;
  static constexpr unsigned kLevels = 64 / kDigitBits;

  void admit(Time t) {
    RISE_CHECK_MSG(t >= cursor_, "push at time "
                                     << t << " precedes the cursor (" << cursor_
                                     << ")");
    ++size_;
  }

  /// The slot t belongs in at the current cursor; counts it on its level.
  std::size_t slot_index(Time t) {
    // diff | 1 puts t == cursor_ on level 0 without a branch.
    const auto top_bit =
        static_cast<unsigned>(std::bit_width((t ^ cursor_) | 1));
    const unsigned level = (top_bit - 1) / kDigitBits;
    ++level_size_[level];
    return level * kSlots + (t >> (level * kDigitBits)) % kSlots;
  }

  /// emplace's slow path: an entry beyond the cursor's window. Out of line
  /// so it doesn't price emplace out of send_from's inlining budget.
  [[gnu::noinline]] std::size_t far_slot(Time t) { return slot_index(t); }

  /// Appends room for n words to the slot's buffer, taking a spare buffer
  /// if the slot holds none, and points e at it.
  [[gnu::noinline]] std::uint64_t* claim_words(std::size_t slot, Entry& e,
                                               std::uint32_t n)
    requires kCarriesWords;

  /// Empties a slot and hands its word buffer on to the spares.
  void clear_slot(std::size_t slot);

  /// front_until's slow path: the cursor's tick is drained — step to the
  /// next occupied tick of level 0, spilling higher slots until one
  /// surfaces, unless that tick lies beyond `limit`.
  Entry* front_advance(Time limit);

  std::vector<std::vector<Entry>> slots_;  // kLevels * kSlots, level-major
  /// Each slot's payload words, when entries carry words; else empty.
  std::vector<std::vector<std::uint64_t>> words_;
  std::vector<std::vector<std::uint64_t>> spare_;  // buffers of drained slots
  std::array<std::size_t, kLevels> level_size_{};  // entries on each level
  std::size_t cursor_pos_ = 0;  // read index into the cursor tick's slot
  Time cursor_ = 0;             // time floor: no entry precedes cursor_
  std::size_t size_ = 0;
};

/// The asynchronous engine's event timeline.
using EventQueue = TimingWheel<Event>;

extern template class TimingWheel<Event>;
extern template class TimingWheel<SyncTimer>;

}  // namespace rise::sim
