// Unit and property tests for the asynchronous engine's event timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace {

using namespace rise;
using sim::Event;
using sim::EventKind;
using sim::EventQueue;
using sim::Time;

Event ev(Time t, std::uint64_t seq) {
  Event e;
  e.t = t;
  e.seq = seq;
  e.kind = EventKind::kWake;
  e.node = static_cast<sim::NodeId>(seq);
  return e;
}

/// Taus on both sides of kMaxBucketSpan: a multi-bucket ring up to it, a
/// one-bucket ring (every later tick waits in the overflow heap) above it.
const std::vector<Time> kSpanEdgeTaus = {4, EventQueue::kMaxBucketSpan,
                                         EventQueue::kMaxBucketSpan + 1,
                                         100000};

TEST(EventQueue, RingCoversTauUpToTheSpanThenHoldsOneTick) {
  EventQueue q(EventQueue::kMaxBucketSpan);
  q.push(ev(EventQueue::kMaxBucketSpan, 0));
  EXPECT_EQ(q.ring_occupancy(), 1u);
  EXPECT_EQ(q.overflow_occupancy(), 0u);

  for (const Time tau : {EventQueue::kMaxBucketSpan + 1,
                         std::numeric_limits<Time>::max() / 2}) {
    q.reset(tau);
    q.push(ev(0, 0));  // the current tick: straight into the one bucket
    q.push(ev(1, 1));  // any later tick: the overflow heap
    EXPECT_EQ(q.ring_occupancy(), 1u);
    EXPECT_EQ(q.overflow_occupancy(), 1u);
    EXPECT_EQ(q.pop().seq, 0u);
    EXPECT_EQ(q.pop().seq, 1u);
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, PopsInTimeThenSeqOrder) {
  for (const Time tau : kSpanEdgeTaus) {
    SCOPED_TRACE(tau);
    EventQueue q(tau);
    q.push(ev(3, 0));
    q.push(ev(1, 1));
    q.push(ev(1, 2));
    q.push(ev(2, 3));
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(q.pop().seq, 1u);
    EXPECT_EQ(q.pop().seq, 2u);
    EXPECT_EQ(q.pop().seq, 3u);
    EXPECT_EQ(q.pop().seq, 0u);
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q(4);
  EXPECT_THROW(q.pop(), CheckError);
}

TEST(EventQueue, StalePushThrowsInReleaseBuildsToo) {
  // Regression: a push dated before the bucket cursor used to be guarded by
  // a debug-only assertion; in release builds it silently indexed the ring
  // modulo its span and the event time-traveled one full lap into the
  // future. The guard is now an always-on RISE_CHECK.
  for (const Time tau : kSpanEdgeTaus) {
    SCOPED_TRACE(tau);
    EventQueue q(tau);
    q.push(ev(10, 0));
    EXPECT_EQ(q.pop().t, 10u);  // cursor advances to t=10
    EXPECT_THROW(q.push(ev(9, 1)), CheckError);
    // Pushes at the cursor itself remain legal (same-tick follow-ups).
    q.push(ev(10, 2));
    EXPECT_EQ(q.pop().seq, 2u);
  }
}

TEST(EventQueue, FarFutureWakeupsCrossTheBucketHorizon) {
  EventQueue q(2);
  // Far beyond the ring span: must park in the overflow and come back in
  // order, including across an idle gap the queue has to leap over.
  q.push(ev(1'000'000, 0));
  q.push(ev(500'000, 1));
  q.push(ev(1, 2));
  EXPECT_EQ(q.pop().t, 1u);
  EXPECT_EQ(q.pop().t, 500'000u);
  EXPECT_EQ(q.pop().t, 1'000'000u);
  EXPECT_TRUE(q.empty());
}

/// Engine-shaped random workload: pop an event at time t, then push a few
/// events with delays in [1, tau] (plus rare far-future ones), exactly the
/// push pattern the async engine produces. The pop order must match a
/// stable-sort reference, for small taus and on both sides of
/// kMaxBucketSpan. One queue serves every trial, reset in between the way a
/// RunWorkspace recycles it, so small-tau trials also run on a ring left
/// over from larger ones.
TEST(EventQueue, PropertyRandomWorkloadMatchesReferenceOrder) {
  std::vector<Time> taus = {1, 2, 3, 5, 6, 7};
  taus.insert(taus.end(), kSpanEdgeTaus.begin(), kSpanEdgeTaus.end());
  EventQueue q;
  for (std::uint64_t trial = 0; trial < 3 * taus.size(); ++trial) {
    const Time tau = taus[trial % taus.size()];
    SCOPED_TRACE(tau);
    q.reset(tau);
    Rng rng(7000 + trial);
    std::uint64_t seq = 0;
    std::vector<Event> pushed;

    auto push = [&](Event e) {
      pushed.push_back(e);
      q.push(e);
    };

    // Initial "wake schedule": a few events at arbitrary future times.
    for (int i = 0; i < 5; ++i) {
      push(ev(rng.uniform(2000), seq++));
    }

    std::vector<Event> popped;
    while (!q.empty()) {
      const Event a = q.pop();
      popped.push_back(a);
      // Sometimes schedule follow-ups within (t, t + tau], like deliveries.
      if (popped.size() < 400) {
        const std::uint64_t fanout = rng.uniform(3);
        for (std::uint64_t k = 0; k < fanout; ++k) {
          push(ev(a.t + 1 + rng.uniform(tau), seq++));
        }
      }
    }

    std::stable_sort(pushed.begin(), pushed.end(),
                     [](const Event& x, const Event& y) {
                       if (x.t != y.t) return x.t < y.t;
                       return x.seq < y.seq;
                     });
    ASSERT_EQ(popped.size(), pushed.size());
    for (std::size_t i = 0; i < popped.size(); ++i) {
      EXPECT_EQ(popped[i].t, pushed[i].t) << "position " << i;
      EXPECT_EQ(popped[i].seq, pushed[i].seq) << "position " << i;
    }
  }
}

TEST(EventQueue, MessagePayloadSurvivesTheQueue) {
  EventQueue q(4);
  Event e;
  e.t = 2;
  e.seq = 0;
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
