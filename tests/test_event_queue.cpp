// Unit and property tests for the engines' timing wheel: the asynchronous
// engine's event timeline and the synchronous engine's timers.
#include <gtest/gtest.h>

#include <algorithm>
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

/// A wake event whose node field carries a test-chosen id, so a test can
/// tell which push an event came from.
Event ev(Time t, std::uint32_t id) {
  Event e;
  e.t = t;
  e.kind = EventKind::kWake;
  e.node = id;
  return e;
}

/// An entry of either wheel type at time t whose node field carries `id`.
template <class Entry>
Entry entry(Time t, std::uint32_t id) {
  if constexpr (std::is_same_v<Entry, Event>) {
    return ev(t, id);
  } else {
    return Entry{t, id};
  }
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
    q.push(ev(base, 0));
    EXPECT_EQ(q.pop().t, base);  // the cursor now sits at `base`
    const std::vector<Time> times = {base + 255, base + 256, Time{1} << 56,
                                     sim::kNever - 1};
    for (std::size_t i = 0; i < times.size(); ++i) {
      q.push(ev(times[i], static_cast<std::uint32_t>(i)));
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
  q.push(ev(3, 0));
  q.push(ev(1, 1));
  q.push(ev(1, 2));
  q.push(ev(2, 3));
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
    q.push(ev(t, 0));
    EXPECT_EQ(q.pop().t, t);  // cursor advances to t
    EXPECT_THROW(q.push(ev(t - 1, 1)), CheckError);
    // Pushes at the cursor itself remain legal (same-tick follow-ups).
    q.push(ev(t, 2));
    EXPECT_EQ(q.pop().node, 2u);
  }
}

// The sync engine's pattern: with the next entry far ahead, a bounded front
// must not move the cursor past its limit, or a nap registered in between
// would be rejected as stale.
TEST(EventQueue, BoundedFrontLeavesTheCursorAtItsLimit) {
  TimingWheel<SyncTimer> q;
  q.reset();
  q.push(SyncTimer{0, 0});
  q.push(SyncTimer{300, 1});
  ASSERT_NE(q.front_until(0), nullptr);
  EXPECT_EQ(q.front_until(0)->node, 0u);
  q.drop_front();
  EXPECT_EQ(q.front_until(2), nullptr);
  q.push(SyncTimer{5, 2});  // accepted: the cursor is still <= 2
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
  q.push(ev(1'000'000, 0));
  q.push(ev(500'000, 1));
  q.push(ev(1, 2));
  q.push(ev(500'000, 3));
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
/// on slots left over from the last.
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

    auto push = [&](Time t) {
      pushed.push_back(entry<Entry>(t, next_id++));
      q.push(pushed.back());
    };

    // Initial "wake schedule": a few events at arbitrary future times, near
    // and far, with a repeated far time to tie on.
    for (int i = 0; i < 5; ++i) push(rng.uniform(2000));
    const Time far = rng.uniform(Time{1} << 62);
    push(far);
    push(rng.uniform(Time{1} << 62));
    push(far);

    std::vector<Entry> popped;
    while (!q.empty()) {
      const Entry a = q.pop();
      popped.push_back(a);
      // Sometimes schedule follow-ups within (t, t + tau], like deliveries.
      if (popped.size() < 400) {
        const std::uint64_t fanout = rng.uniform(3);
        for (std::uint64_t k = 0; k < fanout; ++k) {
          push(a.t + 1 + rng.uniform(tau));
        }
      }
    }

    std::stable_sort(
        pushed.begin(), pushed.end(),
        [](const Entry& x, const Entry& y) { return x.t < y.t; });
    ASSERT_EQ(popped.size(), pushed.size());
    for (std::size_t i = 0; i < popped.size(); ++i) {
      EXPECT_EQ(popped[i].t, pushed[i].t) << "position " << i;
      EXPECT_EQ(popped[i].node, pushed[i].node) << "position " << i;
    }
  }
}

TEST(EventQueue, MessagePayloadSurvivesTheQueue) {
  EventQueue q = fresh_queue();
  Event e;
  e.t = 2;
  e.kind = EventKind::kDeliver;
  e.node = 1;
  e.port = 3;
  e.msg = sim::make_message(77, {1, 2, 3, 4, 5, 6}, 99);
  q.push(std::move(e));
  const Event out = q.pop();
  EXPECT_EQ(out.msg.type, 77u);
  ASSERT_EQ(out.msg.payload.size(), 6u);
  EXPECT_EQ(out.msg.payload[5], 6u);
  EXPECT_EQ(out.msg.logical_bits(), 99u);
  EXPECT_EQ(out.port, 3u);
}

}  // namespace
