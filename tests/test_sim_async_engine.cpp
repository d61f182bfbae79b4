#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "algo/flooding.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace rise::sim {
namespace {

/// Node 0 sends `count` numbered messages to port 0 on wake; receivers log
/// arrival order.
KernelRunner numbered_kernel(int count, std::vector<std::uint64_t>* log) {
  return test::lambda_kernel(
      [count](auto& ctx, WakeCause cause) {
        if (ctx.node() != 0 || cause != WakeCause::kAdversary) return;
        for (int i = 0; i < count; ++i) {
          ctx.send(0, 1, 32, static_cast<std::uint64_t>(i));
        }
      },
      [log](auto&, const Incoming& in) { log->push_back(in.words()[0]); });
}

TEST(AsyncRun, FifoUnderAdversarialDelays) {
  // Random delays would reorder messages without the FIFO clamp.
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::vector<std::uint64_t> log;
  const auto delays = random_delay(50, 333);
  const auto result =
      run_async(inst, *delays, wake_single(0), 1, numbered_kernel(64, &log));
  ASSERT_EQ(log.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(log[i], i);
}

TEST(AsyncRun, MessageWakesSleepingNode) {
  const auto g = graph::path(3);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto delays = unit_delay();
  const auto result =
      run_async(inst, *delays, wake_single(0), 1, algo::flooding_kernel());
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(result.wake_time[0], 0u);
  EXPECT_EQ(result.wake_time[1], 1u);
  EXPECT_EQ(result.wake_time[2], 2u);
}

TEST(AsyncRun, TimeUnitsNormalizedByTau) {
  const auto g = graph::path(11);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  for (Time tau : {1ull, 4ull, 9ull}) {
    const auto delays = fixed_delay(tau);
    const auto result =
        run_async(inst, *delays, wake_single(0), 1, algo::flooding_kernel());
    EXPECT_TRUE(result.all_awake());
    // 10 hops to the far end plus the final echo back — the paper counts
    // until the last message is *received*.
    EXPECT_DOUBLE_EQ(result.metrics.time_units(), 11.0) << "tau=" << tau;
  }
}

TEST(AsyncRun, CountsMessagesAndBits) {
  const auto g = graph::complete(5);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto delays = unit_delay();
  const auto result =
      run_async(inst, *delays, wake_all(5), 1, algo::flooding_kernel());
  // Every node broadcasts once: 5 * 4 messages of 8 bits.
  EXPECT_EQ(result.metrics.messages, 20u);
  EXPECT_EQ(result.metrics.bits, 160u);
  EXPECT_EQ(result.metrics.deliveries, 20u);
  EXPECT_EQ(result.metrics.sent_per_node[2], 4u);
}

TEST(AsyncRun, AdversaryWakeOfAwakeNodeIsIgnored) {
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {5, 0}, {3, 1}};
  const auto delays = unit_delay();
  const auto result =
      run_async(inst, *delays, schedule, 1, algo::flooding_kernel());
  EXPECT_EQ(result.wake_time[0], 0u);
  EXPECT_EQ(result.wake_time[1], 1u);  // woken by message before round 3
}

TEST(AsyncRun, LateAdversaryWake) {
  // Node 2 is disconnected; only the adversary can wake it, at time 100.
  const auto g = graph::Graph::from_edges(3, {{0, 1}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {100, 2}};
  const auto delays = unit_delay();
  const auto result =
      run_async(inst, *delays, schedule, 1, algo::flooding_kernel());
  EXPECT_EQ(result.wake_time[2], 100u);
  EXPECT_TRUE(result.all_awake());
}

TEST(AsyncRun, CongestViolationThrows) {
  const auto g = graph::path(2);
  const Instance inst =
      test::make_instance(g, Knowledge::KT1, Bandwidth::CONGEST);
  const auto delays = unit_delay();
  const KernelRunner fat = test::lambda_kernel([](auto& ctx, WakeCause) {
    const std::vector<std::uint64_t> payload(100, 7);
    ctx.send(0, 9, 6400, std::span<const std::uint64_t>(payload));
  });
  EXPECT_THROW(run_async(inst, *delays, wake_single(0), 1, fat), CheckError);
}

// The asynchronous context has no rounds: local_round() reads 0 and the
// round features refuse.
TEST(AsyncRun, ContextHasNoRounds) {
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto delays = unit_delay();
  int checked = 0;
  const KernelRunner probe = test::lambda_kernel([&checked](auto& ctx,
                                                            WakeCause) {
    EXPECT_EQ(ctx.local_round(), 0u);
    EXPECT_THROW(ctx.request_tick(), CheckError);
    EXPECT_THROW(ctx.sleep_until(5), CheckError);
    ++checked;
  });
  run_async(inst, *delays, wake_all(2), 1, probe);
  EXPECT_EQ(checked, 2);
}

TEST(AsyncRun, DeterministicAcrossRuns) {
  Rng rng(31);
  const auto g = graph::connected_gnp(40, 0.1, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto delays = random_delay(7, 99);
  const auto r1 =
      run_async(inst, *delays, wake_single(3), 42, algo::flooding_kernel());
  const auto r2 =
      run_async(inst, *delays, wake_single(3), 42, algo::flooding_kernel());
  EXPECT_EQ(r1.metrics.messages, r2.metrics.messages);
  EXPECT_EQ(r1.wake_time, r2.wake_time);
}

TEST(AsyncRun, MaxEventsLimitEnforced) {
  const auto g = graph::cycle(4);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  // Ping-pong forever.
  const KernelRunner pingpong = test::lambda_kernel(
      [](auto& ctx, WakeCause cause) {
        if (cause == WakeCause::kAdversary) {
          ctx.send(0, 1, 8);
        }
      },
      [](auto& ctx, const Incoming& in) {
        ctx.send(in.port, 1, 8);
      });
  const auto delays = unit_delay();
  RunLimits limits;
  limits.max_events = 1000;
  EXPECT_THROW(
      run_async(inst, *delays, wake_single(0), 1, pingpong, limits),
      CheckError);
}

TEST(AsyncRun, SlowChannelsDelayPolicyRespectsTau) {
  const auto delays = slow_channels_delay(20, 3, 1);
  EXPECT_EQ(delays->max_delay(), 20u);
  for (graph::NodeId a = 0; a < 10; ++a) {
    for (graph::NodeId b = 0; b < 10; ++b) {
      const Time d = delays->delay(a, b, 0, 0);
      EXPECT_TRUE(d == 1 || d == 20);
    }
  }
}

TEST(AsyncRun, KT0ContextHidesNeighborLabels) {
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT0);
  const KernelRunner nosy = test::lambda_kernel([](auto& ctx, WakeCause) {
    ctx.neighbor_labels();  // model violation under KT0
  });
  const auto delays = unit_delay();
  EXPECT_THROW(run_async(inst, *delays, wake_single(0), 1, nosy), CheckError);
}

}  // namespace
}  // namespace rise::sim
