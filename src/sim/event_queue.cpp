#include "sim/event_queue.hpp"

namespace rise::sim {

template <class Entry>
void TimingWheel<Entry>::reset() {
  if (slots_.empty()) slots_.resize(kLevels * kSlots);
  // The cursor tick's slot may still hold popped entries; any other slot
  // with entries sits on a level whose count is nonzero (an aborted run).
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

template <class Entry>
Entry* TimingWheel<Entry>::front_advance(Time limit) {
  for (;;) {
    // The first pass finds the slot drained (front_until checked it); a
    // later pass follows a spill, which left the cursor <= limit.
    auto& slot = slots_[cursor_ % kSlots];
    if (cursor_pos_ < slot.size()) return &slot[cursor_pos_];
    // The cursor's tick is drained; free the slot for the next window.
    slot.clear();
    cursor_pos_ = 0;
    if (size_ == 0) return nullptr;
    if (level_size_[0] != 0) {
      // A later tick of this window still holds entries: step to it.
      std::size_t tick = cursor_ % kSlots + 1;
      while (slots_[tick].empty()) ++tick;
      const Time next = cursor_ - cursor_ % kSlots + tick;
      if (next > limit) return nullptr;
      cursor_ = next;
      return &slots_[tick].front();
    }
    // Level 0 is dry: the next entry lies in the lowest occupied level's
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
    const Time start = high | (Time{digit} << shift);
    if (start > limit) return nullptr;
    cursor_ = start;
    auto& spilled = slots_[level * kSlots + digit];
    level_size_[level] -= spilled.size();
    for (Entry& e : spilled) slot_for(e.t).push_back(std::move(e));
    spilled.clear();
  }
}

template class TimingWheel<Event>;
template class TimingWheel<SyncTimer>;

}  // namespace rise::sim
