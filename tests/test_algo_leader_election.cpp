#include <gtest/gtest.h>

#include <set>

#include "algo/ranked_dfs.hpp"
#include "test_util.hpp"

namespace rise::algo {
namespace {

using sim::Knowledge;

/// All nodes must output the same leader, and the leader must be one of the
/// adversary-woken nodes (only those draw ranks and can win).
void expect_valid_election(const sim::RunResult& result,
                           const sim::Instance& inst,
                           const sim::WakeSchedule& schedule,
                           const std::string& context) {
  ASSERT_TRUE(result.all_awake()) << context;
  std::set<std::uint64_t> outputs(result.outputs.begin(),
                                  result.outputs.end());
  ASSERT_EQ(outputs.size(), 1u) << context << ": outputs disagree";
  const std::uint64_t leader = *outputs.begin();
  ASSERT_NE(leader, sim::kNoOutput) << context << ": nobody announced";
  std::set<std::uint64_t> initiator_labels;
  for (const auto& [t, u] : schedule.wakes) {
    initiator_labels.insert(inst.label(u));
  }
  EXPECT_TRUE(initiator_labels.count(leader))
      << context << ": leader " << leader << " never drew a rank";
}

TEST(LeaderElection, UnanimousAcrossCatalog) {
  Rng rng(1);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.3, rng);
    const auto result = test::run_async_unit(inst, schedule,
                                             ranked_dfs_leader_kernel());
    expect_valid_election(result, inst, schedule, name);
  }
}

TEST(LeaderElection, SingleInitiatorElectsItself) {
  const auto g = graph::grid(6, 6);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto schedule = sim::wake_single(7);
  const auto result = test::run_async_unit(inst, schedule,
                                           ranked_dfs_leader_kernel());
  ASSERT_TRUE(result.all_awake());
  for (std::uint64_t out : result.outputs) {
    EXPECT_EQ(out, inst.label(7));
  }
}

TEST(LeaderElection, StaggeredAdversaryStillUnanimous) {
  Rng rng(2);
  const auto g = graph::connected_gnp(90, 0.07, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto schedule = sim::staggered_doubling(90, 15, 2.0, rng);
    const auto result = test::run_async_unit(
        inst, schedule, ranked_dfs_leader_kernel(), seed);
    expect_valid_election(result, inst, schedule,
                          "seed " + std::to_string(seed));
  }
}

TEST(LeaderElection, CostsOnlyOneMoreDfsPass) {
  // The announce pass adds at most ~2n messages over plain wake-up.
  Rng rng(3);
  const auto g = graph::connected_gnp(120, 0.06, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto schedule = sim::wake_set({0, 50, 100});
  const auto plain = test::run_async_unit(inst, schedule,
                                          ranked_dfs_kernel(), 5);
  const auto elect = test::run_async_unit(inst, schedule,
                                          ranked_dfs_leader_kernel(), 5);
  EXPECT_LE(elect.metrics.messages,
            plain.metrics.messages + 2ull * g.num_nodes());
}

TEST(LeaderElection, RobustUnderAdversarialDelays) {
  Rng rng(4);
  const auto g = graph::lollipop(20, 20);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto delays = sim::random_delay(7, 1234);
  const auto schedule = sim::wake_set({0, 39});
  const auto result = sim::run_async(inst, *delays, schedule, 11,
                                     ranked_dfs_leader_kernel());
  expect_valid_election(result, inst, schedule, "lollipop");
}

}  // namespace
}  // namespace rise::algo
