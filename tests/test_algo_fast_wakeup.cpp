#include "algo/fast_wakeup.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/algorithms.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"

namespace rise::algo {
namespace {

using sim::Knowledge;

TEST(FastWakeup, WakesAllOnCatalog) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto result =
        sim::run_sync(inst, sim::wake_single(0), 7, fast_wakeup_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(FastWakeup, RespectsTenRhoBound) {
  // Theorem 4: every node is awake within 10 * rho_awk rounds.
  Rng rng(1);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
      const auto schedule = sim::wake_single(0);
      const auto result =
          sim::run_sync(inst, schedule, seed, fast_wakeup_kernel());
      ASSERT_TRUE(result.all_awake()) << name;
      const auto rho = graph::awake_distance(g, {0});
      EXPECT_LE(result.wakeup_span(), 10ull * rho + 10)
          << name << " seed=" << seed;
    }
  }
}

TEST(FastWakeup, DominatingSetWakesFast) {
  // rho_awk <= 1: everyone awake within ~10 rounds.
  Rng rng(2);
  const auto g = graph::connected_gnp(100, 0.08, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto schedule = sim::dominating_set_wakeup(g);
  const auto result = sim::run_sync(inst, schedule, 3, fast_wakeup_kernel());
  ASSERT_TRUE(result.all_awake());
  EXPECT_LE(result.wakeup_span(), 10u);
}

TEST(FastWakeup, AllAwakeInstantlyStillQuiesces) {
  const auto g = graph::complete(30);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto result =
      sim::run_sync(inst, sim::wake_all(30), 5, fast_wakeup_kernel());
  EXPECT_TRUE(result.all_awake());
  EXPECT_LT(result.metrics.rounds, 40u);
}

TEST(FastWakeup, ForcedRootBuildsThreeLevelTree) {
  // With root probability 1, node 0's BFS reaches distance 3 without any
  // activate! broadcast.
  const auto g = graph::path(6);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  FastWakeupProbe probe;
  const auto result = sim::run_sync(inst, sim::wake_single(0), 1,
                                    fast_wakeup_kernel(&probe, 1.0));
  EXPECT_GE(probe.roots_sampled, 1u);
  // Nodes 1..3 are levels 1..3 of node 0's tree; node 3 becomes active and
  // continues the wake-up, so all nodes wake eventually.
  EXPECT_TRUE(result.all_awake());
}

TEST(FastWakeup, NoRootsFallsBackToBroadcastWaves) {
  // With root probability 0, progress happens purely via activate!
  // broadcasts every 10 rounds.
  const auto g = graph::path(5);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  FastWakeupProbe probe;
  const auto result = sim::run_sync(inst, sim::wake_single(0), 1,
                                    fast_wakeup_kernel(&probe, 0.0));
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(probe.roots_sampled, 0u);
  EXPECT_GE(probe.activate_broadcasts, 4u);
  // One wave per hop: 10 rounds each.
  EXPECT_LE(result.wakeup_span(), 10ull * 4);
}

TEST(FastWakeup, MessageBoundOnDominatingSetWorkload) {
  // Theorem 4: O(n^{3/2} sqrt(log n)) messages w.h.p. (rho = 1 regime).
  Rng rng(3);
  const graph::NodeId n = 144;
  const auto g = graph::connected_gnp(n, 0.2, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto schedule = sim::dominating_set_wakeup(g);
  const auto result = sim::run_sync(inst, schedule, 17, fast_wakeup_kernel());
  ASSERT_TRUE(result.all_awake());
  const double bound =
      40.0 * std::pow(n, 1.5) * std::sqrt(std::log(static_cast<double>(n)));
  EXPECT_LT(static_cast<double>(result.metrics.messages), bound);
}

TEST(FastWakeup, LateAdversaryWakesDoNotBreakInProgressTrees) {
  Rng rng(4);
  const auto g = graph::grid(8, 8);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  sim::WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {3, 30}, {7, 55}, {12, 63}};
  const auto result = sim::run_sync(inst, schedule, 2, fast_wakeup_kernel());
  EXPECT_TRUE(result.all_awake());
}

TEST(FastWakeup, DeterministicGivenSeed) {
  Rng rng(5);
  const auto g = graph::connected_gnp(60, 0.1, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto r1 =
      sim::run_sync(inst, sim::wake_single(0), 123, fast_wakeup_kernel());
  const auto r2 =
      sim::run_sync(inst, sim::wake_single(0), 123, fast_wakeup_kernel());
  EXPECT_EQ(r1.wake_time, r2.wake_time);
  EXPECT_EQ(r1.metrics.messages, r2.metrics.messages);
}

}  // namespace
}  // namespace rise::algo
