// Unit and property tests for the engines' timing wheel: the asynchronous
// engine's event timeline and the synchronous engine's timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace {

using namespace rise;
using sim::Event;
using sim::EventKind;
using sim::EventQueue;
using sim::SyncTimer;
using sim::Time;
using sim::TimingWheel;

/// The payload of the event with node field `id`: 0 to 40 words derived
/// from the id, so a popped span can be checked against its push.
std::vector<std::uint64_t> words_of(std::uint32_t id) {
  std::vector<std::uint64_t> words(id % 41);
  for (std::size_t k = 0; k < words.size(); ++k) {
    words[k] = id * 0x9E3779B97F4A7C15ull + k;
  }
  return words;
}

EventQueue fresh_queue() {
  EventQueue q;
  q.reset();
  return q;
}

TEST(EventQueue, CursorWindowIsLevelZeroAndEveryLaterTimeSitsAbove) {
  for (const Time base : {Time{0}, Time{512}}) {
    SCOPED_TRACE(base);
    EventQueue q = fresh_queue();
    q.emplace(base, 0);
    EXPECT_EQ(q.pop().t, base);  // the cursor now sits at `base`
    const std::vector<Time> times = {base + 255, base + 256, Time{1} << 56,
                                     sim::kNever - 1};
    for (std::size_t i = 0; i < times.size(); ++i) {
      q.emplace(times[i], static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(q.ring_occupancy(), 1u);
    EXPECT_EQ(q.overflow_occupancy(), 3u);
    for (std::size_t i = 0; i < times.size(); ++i) {
      const Event e = q.pop();
      EXPECT_EQ(e.t, times[i]);
      EXPECT_EQ(e.node, i);
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, PopsInTimeThenPushOrder) {
  EventQueue q = fresh_queue();
  q.emplace(3, 0);
  q.emplace(1, 1);
  q.emplace(1, 2);
  q.emplace(2, 3);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop().node, 1u);
  EXPECT_EQ(q.pop().node, 2u);
  EXPECT_EQ(q.pop().node, 3u);
  EXPECT_EQ(q.pop().node, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q = fresh_queue();
  EXPECT_THROW(q.pop(), CheckError);
}

TEST(EventQueue, StalePushThrowsInReleaseBuildsToo) {
  // Regression: a push dated before the cursor used to be guarded by a
  // debug-only assertion; in release builds it silently indexed the ring
  // modulo its span and the event time-traveled one full lap into the
  // future. The guard is now an always-on RISE_CHECK.
  for (const Time t : {Time{10}, Time{100000}}) {
    SCOPED_TRACE(t);
    EventQueue q = fresh_queue();
    q.emplace(t, 0);
    EXPECT_EQ(q.pop().t, t);  // cursor advances to t
    EXPECT_THROW(q.emplace(t - 1, 1u), CheckError);
    // Pushes at the cursor itself remain legal (same-tick follow-ups).
    q.emplace(t, 2);
    EXPECT_EQ(q.pop().node, 2u);
  }
}

// The sync engine's pattern: with the next entry far ahead, a bounded front
// must not move the cursor past its limit, or a nap registered in between
// would be rejected as stale.
TEST(EventQueue, BoundedFrontLeavesTheCursorAtItsLimit) {
  TimingWheel<SyncTimer> q;
  q.reset();
  q.emplace(0, 0);
  q.emplace(300, 1);
  ASSERT_NE(q.front_until(0), nullptr);
  EXPECT_EQ(q.front_until(0)->node, 0u);
  q.drop_front();
  EXPECT_EQ(q.front_until(2), nullptr);
  q.emplace(5, 2);  // accepted: the cursor is still <= 2
  EXPECT_EQ(q.front_until(4), nullptr);
  const SyncTimer* next = q.front_until(sim::kNever);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->t, 5u);
  EXPECT_EQ(next->node, 2u);
  q.drop_front();
  EXPECT_EQ(q.pop().t, 300u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.front_until(sim::kNever), nullptr);
}

TEST(EventQueue, FarFutureWakeupsCrossTheWindows) {
  EventQueue q = fresh_queue();
  // Far beyond the cursor's window: must spill down and come back in order,
  // including across an idle gap the queue has to leap over.
  q.emplace(1'000'000, 0);
  q.emplace(500'000, 1);
  q.emplace(1, 2);
  q.emplace(500'000, 3);
  EXPECT_EQ(q.pop().t, 1u);
  EXPECT_EQ(q.pop().node, 1u);
  EXPECT_EQ(q.pop().node, 3u);
  EXPECT_EQ(q.pop().t, 1'000'000u);
  EXPECT_TRUE(q.empty());
}

template <class Entry>
class WheelOrder : public ::testing::Test {};
using WheelEntries = ::testing::Types<Event, SyncTimer>;
TYPED_TEST_SUITE(WheelOrder, WheelEntries);

/// Engine-shaped random workload: pop an entry at time t, then push a few
/// entries with delays in [1, tau] (plus far-future wake-ups up to 2^62),
/// exactly the push pattern the async engine produces. The pop order must
/// match a stable sort of the pushes by time, for every tau and for both
/// engines' entry types. Each push gets an id from a test-local counter,
/// which identifies it in both orders. One wheel serves every trial, reset
/// in between the way a RunWorkspace recycles it, so every trial also runs
/// on slots (and word buffers) left over from the last; every fourth trial
/// stops early, like an aborted run, and leaves entries behind.
TYPED_TEST(WheelOrder, PropertyRandomWorkloadMatchesReferenceOrder) {
  using Entry = TypeParam;
  const std::vector<Time> taus = {1, 2, 3, 4, 5, 6, 7, 4096, 4097, 100000,
                                  Time{1} << 32};
  TimingWheel<Entry> q;
  for (std::uint64_t trial = 0; trial < 3 * taus.size(); ++trial) {
    const Time tau = taus[trial % taus.size()];
    SCOPED_TRACE(tau);
    q.reset();
    Rng rng(7000 + trial);
    std::uint32_t next_id = 0;
    std::vector<Entry> pushed;

    // An Event carries the words of its id (as a delivery would); the
    // wheel must hand them back with it, across spills and reuse.
    auto push = [&](Time t) {
      const std::uint32_t id = next_id++;
      Entry& reference = pushed.emplace_back();
      reference.t = t;
      reference.node = id;
      if constexpr (std::is_same_v<Entry, Event>) {
        const std::vector<std::uint64_t> words = words_of(id);
        const auto n = static_cast<std::uint32_t>(words.size());
        std::uint64_t* out = q.emplace_words(t, n, id, sim::kInvalidPort,
                                             sim::Message(1, 0, n),
                                             EventKind::kDeliver);
        std::copy(words.begin(), words.end(), out);
      } else {
        q.emplace(t, id);
      }
    };

    // Initial "wake schedule": a few events at arbitrary future times, near
    // and far, with a repeated far time to tie on.
    for (int i = 0; i < 5; ++i) push(rng.uniform(2000));
    const Time far = rng.uniform(Time{1} << 62);
    push(far);
    push(rng.uniform(Time{1} << 62));
    push(far);

    const bool aborts = trial % 4 == 3;
    std::vector<Entry> popped;
    while (!q.empty() && !(aborts && popped.size() == 150)) {
      const Entry& front = q.front();
      const Entry a = front;
      std::span<const std::uint64_t> words;
      if constexpr (std::is_same_v<Entry, Event>) {
        words = {q.front_words(front), a.msg.size};
      }
      q.drop_front();
      popped.push_back(a);
      // Sometimes schedule follow-ups within (t, t + tau], like deliveries.
      if (popped.size() < 400) {
        const std::uint64_t fanout = rng.uniform(3);
        for (std::uint64_t k = 0; k < fanout; ++k) {
          push(a.t + 1 + rng.uniform(tau));
        }
      }
      // The words stay valid across those pushes, until the next front().
      if constexpr (std::is_same_v<Entry, Event>) {
        const std::vector<std::uint64_t> expected = words_of(a.node);
        ASSERT_TRUE(std::equal(words.begin(), words.end(), expected.begin(),
                               expected.end()))
            << "event " << a.node << " at t=" << a.t;
      }
    }

    std::stable_sort(
        pushed.begin(), pushed.end(),
        [](const Entry& x, const Entry& y) { return x.t < y.t; });
    // Later pushes all lie after the cursor, so an aborted trial's pops are
    // a prefix of the reference order.
    if (!aborts) {
      ASSERT_EQ(popped.size(), pushed.size());
    }
    for (std::size_t i = 0; i < popped.size(); ++i) {
      EXPECT_EQ(popped[i].t, pushed[i].t) << "position " << i;
      EXPECT_EQ(popped[i].node, pushed[i].node) << "position " << i;
    }
  }
}

}  // namespace
