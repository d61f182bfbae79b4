#include "sim/event_queue.hpp"

#include <bit>

#include "support/check.hpp"

namespace rise::sim {

void EventQueue::reset() {
  if (slots_.empty()) slots_.resize(kLevels * kSlots);
  // The last tick's slot still holds its popped events; any other slot with
  // events sits on a level whose count is nonzero (an aborted run).
  slots_[cursor_ % kSlots].clear();
  for (unsigned level = 0; level < kLevels; ++level) {
    if (level_size_[level] == 0) continue;
    for (std::size_t i = 0; i < kSlots; ++i) {
      slots_[level * kSlots + i].clear();
    }
    level_size_[level] = 0;
  }
  size_ = 0;
  cursor_pos_ = 0;
  cursor_ = 0;
}

std::vector<Event>& EventQueue::slot_for(Time t) {
  // diff | 1 puts t == cursor_ on level 0 without a branch.
  const auto top_bit = static_cast<unsigned>(std::bit_width((t ^ cursor_) | 1));
  const unsigned level = (top_bit - 1) / kDigitBits;
  ++level_size_[level];
  return slots_[level * kSlots + (t >> (level * kDigitBits)) % kSlots];
}

void EventQueue::emplace_far(Time t, EventKind kind, NodeId node, Port port,
                             Message msg) {
  slot_for(t).emplace_back(t, kind, node, port, std::move(msg));
}

Event& EventQueue::front_advance() {
  for (;;) {
    auto& slot = slots_[cursor_ % kSlots];
    if (cursor_pos_ < slot.size()) return slot[cursor_pos_];
    // The current tick is drained; free the slot for the next window.
    slot.clear();
    cursor_pos_ = 0;
    if (level_size_[0] != 0) {
      // A later tick of this window still holds events: step to it.
      std::size_t tick = cursor_ % kSlots + 1;
      while (slots_[tick].empty()) ++tick;
      cursor_ = cursor_ - cursor_ % kSlots + tick;
      return slots_[tick].front();
    }
    RISE_CHECK_MSG(size_ != 0, "event queue size corrupted");
    // Level 0 is dry: the next event lies in the lowest occupied level's
    // next occupied slot, whose digit exceeds the cursor's there.
    unsigned level = 1;
    while (level_size_[level] == 0) ++level;
    const unsigned shift = level * kDigitBits;
    std::size_t digit = (cursor_ >> shift) % kSlots + 1;
    while (slots_[level * kSlots + digit].empty()) ++digit;
    // Move the cursor to the start of that slot's window and spill the slot
    // into the empty levels below it, in order.
    const unsigned above = shift + kDigitBits;
    const Time high = above < 64 ? cursor_ >> above << above : 0;
    cursor_ = high | (Time{digit} << shift);
    auto& spilled = slots_[level * kSlots + digit];
    level_size_[level] -= spilled.size();
    for (Event& ev : spilled) slot_for(ev.t).push_back(std::move(ev));
    spilled.clear();
  }
}

}  // namespace rise::sim
