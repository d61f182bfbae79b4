#include "sim/event_queue.hpp"

#include <algorithm>

namespace rise::sim {

template <class Entry>
void TimingWheel<Entry>::reset() {
  if (slots_.empty()) {
    slots_.resize(kLevels * kSlots);
    if constexpr (kCarriesWords) words_.resize(kLevels * kSlots);
  }
  // The cursor tick's slot may still hold popped entries; any other slot
  // with entries sits on a level whose count is nonzero (an aborted run).
  clear_slot(cursor_ % kSlots);
  for (unsigned level = 0; level < kLevels; ++level) {
    if (level_size_[level] == 0) continue;
    for (std::size_t i = 0; i < kSlots; ++i) clear_slot(level * kSlots + i);
    level_size_[level] = 0;
  }
  size_ = 0;
  cursor_pos_ = 0;
  cursor_ = 0;
}

template <class Entry>
std::uint64_t* TimingWheel<Entry>::claim_words(std::size_t slot, Entry& e,
                                               std::uint32_t n)
  requires kCarriesWords
{
  std::vector<std::uint64_t>& words = words_[slot];
  if (words.capacity() == 0 && !spare_.empty()) {
    words = std::move(spare_.back());
    spare_.pop_back();
  }
  const std::size_t begin = words.size();
  RISE_CHECK_MSG(begin + n <= UINT32_MAX,
                 "a timing-wheel slot holds more than 2^32 - 1 payload words");
  words.resize(begin + n);
  e.word_begin = static_cast<std::uint32_t>(begin);
  return words.data() + begin;
}

template <class Entry>
void TimingWheel<Entry>::clear_slot(std::size_t slot) {
  slots_[slot].clear();
  if constexpr (kCarriesWords) {
    std::vector<std::uint64_t>& words = words_[slot];
    if (words.capacity() == 0) return;
    words.clear();
    spare_.push_back(std::exchange(words, {}));
  }
}

template <class Entry>
Entry* TimingWheel<Entry>::front_advance(Time limit) {
  for (;;) {
    // The first pass finds the slot drained (front_until checked it); a
    // later pass follows a spill, which left the cursor <= limit.
    auto& slot = slots_[cursor_ % kSlots];
    if (cursor_pos_ < slot.size()) return &slot[cursor_pos_];
    // The cursor's tick is drained; free the slot for the next window.
    clear_slot(cursor_ % kSlots);
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
    const std::size_t from = level * kSlots + digit;
    level_size_[level] -= slots_[from].size();
    for (const Entry& e : slots_[from]) {
      const std::size_t to = slot_index(e.t);
      Entry& moved = slots_[to].emplace_back(e);
      if constexpr (kCarriesWords) {
        if (e.msg.size != 0) {
          std::copy_n(words_[from].data() + e.word_begin, e.msg.size,
                      claim_words(to, moved, e.msg.size));
        }
      }
    }
    clear_slot(from);
  }
}

template class TimingWheel<Event>;
template class TimingWheel<SyncTimer>;

}  // namespace rise::sim
