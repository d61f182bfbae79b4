// FastWakeUp white-box checks via FastWakeupProbe: sampling statistics,
// deactivation suppression, and the message anatomy the Theorem-4 analysis
// relies on.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/fast_wakeup.hpp"
#include "check/claims.hpp"
#include "support/stats.hpp"
#include "test_util.hpp"

namespace rise::algo {
namespace {

using sim::Knowledge;

TEST(FastWakeupInternals, RootCountIsBinomialInActiveNodes) {
  // With forced probability p and all n nodes woken by the adversary, the
  // number of roots across seeds should concentrate around n*p.
  const graph::NodeId n = 400;
  Rng rng(1);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const double p = 0.05;
  SampleStats roots;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    FastWakeupProbe probe;
    sim::run_sync(inst, sim::wake_all(n), seed,
                  fast_wakeup_kernel(&probe, p));
    roots.add(probe.roots_sampled);
  }
  EXPECT_NEAR(roots.mean(), n * p, 3 * std::sqrt(n * p));
}

TEST(FastWakeupInternals, RootsSuppressNeighborBroadcasts) {
  // A root's 3-level BFS deactivates every node within distance 2, so with
  // a guaranteed root among a dense awake set, activate! broadcasts are far
  // rarer than awake nodes.
  const graph::NodeId n = 200;
  Rng rng(2);
  const auto g = graph::connected_gnp(n, 0.2, rng);  // diameter ~2
  const auto inst = test::make_instance(g, Knowledge::KT1);
  FastWakeupProbe probe;
  const auto result = sim::run_sync(inst, sim::wake_all(n), 3,
                                    fast_wakeup_kernel(&probe, 0.1));
  ASSERT_TRUE(result.all_awake());
  EXPECT_GT(probe.roots_sampled, 5u);
  // Nearly everyone joins some tree at level <= 2 and deactivates.
  EXPECT_LT(probe.activate_broadcasts, n / 4);
}

TEST(FastWakeupInternals, ZeroProbabilityMeansEveryActiveNodeBroadcasts) {
  const graph::NodeId n = 60;
  Rng rng(3);
  const auto g = graph::connected_gnp(n, 0.15, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  FastWakeupProbe probe;
  const auto result = sim::run_sync(inst, sim::wake_all(n), 4,
                                    fast_wakeup_kernel(&probe, 0.0));
  ASSERT_TRUE(result.all_awake());
  EXPECT_EQ(probe.roots_sampled, 0u);
  EXPECT_EQ(probe.activate_broadcasts, n);  // nobody is ever deactivated early
}

TEST(FastWakeupInternals, MessagesScaleWithRootCount) {
  // More roots => more BFS-construction traffic (monotone in p, for p large
  // enough that trees dominate).
  const graph::NodeId n = 300;
  Rng rng(5);
  const auto g = graph::connected_gnp(n, 0.1, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  std::uint64_t prev = 0;
  for (double p : {0.05, 0.2, 0.8}) {
    FastWakeupProbe probe;
    const auto result = sim::run_sync(inst, sim::wake_all(n), 11,
                                      fast_wakeup_kernel(&probe, p));
    ASSERT_TRUE(result.all_awake());
    EXPECT_GT(result.metrics.messages, prev) << "p=" << p;
    prev = result.metrics.messages;
  }
}

TEST(FastWakeupInternals, TenRoundBoundHoldsAcrossManySeeds) {
  // Every bound of the thm4 claim (Theorem 4's 10 rho_awk wake-up among
  // them) on one instance across many seeds.
  const check::Claim& thm4 = check::find_claim("thm4");
  app::ExperimentSpec spec;
  spec.algorithm = "fast_wakeup";
  spec.graph = "grid:12x12";
  spec.schedule = "single";
  SampleStats span_ratios;
  double span_slack = 0.0;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    spec.seed = seed;
    const check::ClaimRun run = check::evaluate_claim(thm4, spec);
    ASSERT_TRUE(run.measurement.all_awake) << seed;
    for (const check::BoundCheck& c : run.checks) {
      EXPECT_TRUE(c.passed) << "seed " << seed << ": "
                            << check::quantity_name(c.bound->quantity)
                            << " ratio " << c.ratio;
      if (c.bound->quantity == check::Quantity::kWakeupSpan) {
        span_ratios.add(c.ratio);
        span_slack = c.bound->slack;
      }
    }
  }
  // Not only bounded but typically well below the bound.
  EXPECT_LT(span_ratios.mean(), span_slack);
}

TEST(FastWakeupInternals, ForcedRootTreeLevelsOnAPath) {
  // One root at the end of a path: its 3-level BFS must accept exactly one
  // node per level (Lemma 10's construction in its simplest form).
  const auto g = graph::path(8);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  FastWakeupProbe probe;
  const auto result = sim::run_sync(inst, sim::wake_single(0), 1,
                                    fast_wakeup_kernel(&probe, 1.0));
  ASSERT_TRUE(result.all_awake());
  // Node 0's tree: L1 = {1}, L2 = {2}, L3 = {3}; node 3 becomes active and
  // roots its own tree (p = 1), covering {2,4},{1,5... further levels; the
  // first tree's membership is at least one per level.
  EXPECT_GE(probe.l1_joins, 1u);
  EXPECT_GE(probe.l2_joins, 1u);
  EXPECT_GE(probe.l3_invites, 1u);
  // Level-3 activation cascades: node 3 wakes within 9 rounds of round 0.
  EXPECT_LE(result.wake_time[3], 9u);
}

TEST(FastWakeupInternals, TreeMembershipBoundsOnDominatingWorkload) {
  // Every L1/L2 join corresponds to an invite from some tree; the totals
  // are bounded by (#roots) * n, and nodes deactivated by joining a tree do
  // not broadcast — so joins + broadcasts roughly account for all nodes.
  const graph::NodeId n = 150;
  Rng rng(9);
  const auto g = graph::connected_gnp(n, 0.15, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  FastWakeupProbe probe;
  const auto result = sim::run_sync(inst, sim::wake_all(n), 2,
                                    fast_wakeup_kernel(&probe));
  ASSERT_TRUE(result.all_awake());
  if (probe.roots_sampled > 0) {
    EXPECT_LE(probe.l1_joins + probe.l2_joins,
              static_cast<std::uint64_t>(probe.roots_sampled) * n);
  }
  EXPECT_LE(probe.activate_broadcasts, n);
}

}  // namespace
}  // namespace rise::algo
