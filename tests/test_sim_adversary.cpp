#include "sim/adversary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"

namespace rise::sim {
namespace {

TEST(WakeSchedule, Builders) {
  const auto all = wake_all(5);
  EXPECT_EQ(all.wakes.size(), 5u);
  EXPECT_EQ(all.earliest(), 0u);

  const auto single = wake_single(3);
  ASSERT_EQ(single.wakes.size(), 1u);
  EXPECT_EQ(single.wakes[0].second, 3u);

  const auto set = wake_set({1, 4});
  EXPECT_EQ(set.nodes_at_time_zero().size(), 2u);
}

TEST(WakeSchedule, RandomSubsetNeverEmpty) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const auto s = wake_random_subset(10, 0.0, rng);
    EXPECT_EQ(s.wakes.size(), 1u);  // fallback wakes node 0
  }
  const auto s = wake_random_subset(1000, 0.5, rng);
  EXPECT_NEAR(static_cast<double>(s.wakes.size()), 500.0, 100.0);
}

TEST(WakeSchedule, RandomSubsetRejectsProbabilitiesOutsideUnitInterval) {
  Rng rng(1);
  for (const double p : {5.0, -0.5, std::nan(""),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(wake_random_subset(10, p, rng), CheckError) << p;
  }
  EXPECT_EQ(wake_random_subset(10, 1.0, rng).wakes.size(), 10u);
}

TEST(WakeSchedule, StaggeredDoublingRejectsWakeTimeOverflow) {
  Rng rng(4);
  // Three nodes wake in batches at 0, gap, 2 * gap: 2 * gap wraps.
  EXPECT_THROW(staggered_doubling(3, kNever / 2 + 1, 1.0, rng), CheckError);
  // The last gap is never added to a wake time, so it may overflow freely.
  const auto s = staggered_doubling(2, kNever / 2 + 1, 1.0, rng);
  EXPECT_EQ(s.wakes.back().first, kNever / 2 + 1);
}

TEST(WakeSchedule, StaggeredDoublingCoversAllNodes) {
  Rng rng(2);
  const auto s = staggered_doubling(100, 10, 2.0, rng);
  std::set<graph::NodeId> nodes;
  for (const auto& [t, u] : s.wakes) nodes.insert(u);
  EXPECT_EQ(nodes.size(), 100u);
  // Batches grow: first wake is alone at t=0.
  EXPECT_EQ(s.earliest(), 0u);
  std::size_t at_zero = s.nodes_at_time_zero().size();
  EXPECT_EQ(at_zero, 1u);
}

TEST(WakeSchedule, StaggeredDoublingTimesAreSpaced) {
  Rng rng(3);
  const auto s = staggered_doubling(40, 7, 2.0, rng);
  for (const auto& [t, u] : s.wakes) {
    EXPECT_EQ(t % 7, 0u);
  }
}

TEST(WakeSchedule, StaggeredDoublingSurvivesHugeGrowthFactors) {
  // Regression: batch = batch * growth with growth = 1e9 overflowed the
  // batch counter after two steps, turning it into a tiny (or zero) batch
  // and stalling the schedule. The clamp caps each batch at the remaining
  // node count.
  Rng rng(11);
  const auto s = staggered_doubling(1000, 5, 1e9, rng);
  std::set<graph::NodeId> nodes;
  Time max_t = 0;
  for (const auto& [t, u] : s.wakes) {
    nodes.insert(u);
    max_t = std::max(max_t, t);
  }
  EXPECT_EQ(nodes.size(), 1000u);
  // Batch sizes 1, then everyone: two batches, so the last wake is at gap*1.
  EXPECT_EQ(max_t, 5u);
}

TEST(DominatingSet, CoversGraph) {
  Rng rng(4);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = graph::connected_gnp(60, 0.1, rng);
    const auto s = dominating_set_wakeup(g);
    const auto nodes = s.all_nodes();
    // Every node is in the set or adjacent to it.
    std::set<graph::NodeId> dom(nodes.begin(), nodes.end());
    for (graph::NodeId u = 0; u < 60; ++u) {
      bool covered = dom.count(u) > 0;
      for (graph::NodeId v : g.neighbors(u)) covered |= dom.count(v) > 0;
      EXPECT_TRUE(covered) << "node " << u;
    }
    EXPECT_LE(schedule_awake_distance(g, s), 1u);
  }
}

TEST(DominatingSet, StarNeedsOnlyHub) {
  const auto g = graph::star(30);
  const auto s = dominating_set_wakeup(g);
  EXPECT_EQ(s.wakes.size(), 1u);
  EXPECT_EQ(s.wakes[0].second, 0u);
}

TEST(ScheduleAwakeDistance, MatchesGraphMetric) {
  const auto g = graph::path(9);
  EXPECT_EQ(schedule_awake_distance(g, wake_single(0)), 8u);
  EXPECT_EQ(schedule_awake_distance(g, wake_single(4)), 4u);
  EXPECT_EQ(schedule_awake_distance(g, wake_set({0, 8})), 4u);
}

TEST(ScheduleAwakeDistance, MatchesBruteForcePerSourceBfs) {
  // rho_awk(G, A0) = max_u min_{a in A0} dist(a, u), recomputed here with
  // one single-source BFS per scheduled node instead of the multi-source
  // pass the library uses.
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = graph::connected_gnp(40, 0.08, rng);
    const auto schedule = wake_random_subset(40, 0.15, rng);
    const auto awake = schedule.all_nodes();

    std::vector<std::vector<std::uint32_t>> dist;
    dist.reserve(awake.size());
    for (graph::NodeId a : awake) dist.push_back(graph::bfs_distances(g, a));
    std::uint32_t brute = 0;
    for (graph::NodeId u = 0; u < 40; ++u) {
      std::uint32_t best = graph::kUnreachable;
      for (const auto& d : dist) best = std::min(best, d[u]);
      brute = std::max(brute, best);
    }
    EXPECT_EQ(schedule_awake_distance(g, schedule), brute) << "trial " << trial;
  }
}

}  // namespace
}  // namespace rise::sim
