// Parameterized property sweeps over n verifying the Table-1 complexity
// *shapes*: measured quantities stay under the paper's bounds (with
// constant-factor slack) as n grows.
#include <gtest/gtest.h>

#include <cmath>

#include "advice/child_encoding.hpp"
#include "graph/algorithms.hpp"
#include "advice/fip06.hpp"
#include "advice/spanner_scheme.hpp"
#include "algo/fast_wakeup.hpp"
#include "algo/flooding.hpp"
#include "algo/ranked_dfs.hpp"
#include "lb/beta_probing.hpp"
#include "test_util.hpp"

namespace rise {
namespace {

using sim::Knowledge;

class SizeSweep : public ::testing::TestWithParam<graph::NodeId> {};

TEST_P(SizeSweep, RankedDfsMessagesAreNearLinear) {
  const graph::NodeId n = GetParam();
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 6.0 / n, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto result = test::run_async_unit(inst, sim::wake_all(n),
                                           algo::ranked_dfs_kernel(), n);
  ASSERT_TRUE(result.all_awake());
  const double bound = 20.0 * n * std::log(static_cast<double>(n));
  EXPECT_LT(static_cast<double>(result.metrics.messages), bound);
}

TEST_P(SizeSweep, FloodingMessagesAreTwoM) {
  const graph::NodeId n = GetParam();
  Rng rng(n + 1);
  const auto g = graph::connected_gnp(n, 6.0 / n, rng);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  const auto result =
      test::run_async_unit(inst, sim::wake_single(0), algo::flooding_kernel());
  EXPECT_EQ(result.metrics.messages, 2 * g.num_edges());
}

TEST_P(SizeSweep, Fip06MessagesLinearAdviceAvgLog) {
  const graph::NodeId n = GetParam();
  Rng rng(n + 2);
  const auto g = graph::connected_gnp(n, 6.0 / n, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  const auto stats = advice::apply_oracle(inst, *advice::fip06_oracle());
  EXPECT_LT(stats.avg_bits, 10.0 * std::log2(static_cast<double>(n)));
  const auto result = test::run_async_unit(inst, sim::wake_all(n),
                                           advice::fip06_kernel());
  ASSERT_TRUE(result.all_awake());
  EXPECT_LE(result.metrics.messages, 2ull * n);
}

TEST_P(SizeSweep, ChildEncodingAllThreeBounds) {
  const graph::NodeId n = GetParam();
  Rng rng(n + 3);
  const auto g = graph::connected_gnp(n, 6.0 / n, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  const auto stats =
      advice::apply_oracle(inst, *advice::child_encoding_oracle());
  const double logn = std::log2(static_cast<double>(n));
  EXPECT_LT(static_cast<double>(stats.max_bits), 10.0 * logn);
  const auto result = test::run_async_unit(inst, sim::wake_single(0),
                                           advice::child_encoding_kernel());
  ASSERT_TRUE(result.all_awake());
  EXPECT_LE(result.metrics.messages, 3ull * n);
  const double d = graph::diameter(g);
  EXPECT_LE(static_cast<double>(result.wakeup_span()),
            4.0 * (d + 1) * (logn + 2));
}

TEST_P(SizeSweep, FastWakeupRespectsRoundAndMessageEnvelope) {
  const graph::NodeId n = GetParam();
  Rng rng(n + 4);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto schedule = sim::dominating_set_wakeup(g);
  const auto result =
      sim::run_sync(inst, schedule, n, algo::fast_wakeup_kernel());
  ASSERT_TRUE(result.all_awake());
  EXPECT_LE(result.wakeup_span(), 10u);
  const double bound = 60.0 * std::pow(static_cast<double>(n), 1.5) *
                       std::sqrt(std::log(static_cast<double>(n)));
  EXPECT_LT(static_cast<double>(result.metrics.messages), bound);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweep,
                         ::testing::Values(64, 128, 256, 512),
                         [](const ::testing::TestParamInfo<graph::NodeId>& i) {
                           return "n" + std::to_string(i.param);
                         });

class BetaSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(BetaSweep, Theorem1CurveFromAchievableSide) {
  // messages(beta) stays within constant factors of 2n*(n+1)/2^beta + O(n):
  // the Theorem-1 advice/message trade-off from the achievable side.
  const unsigned beta = GetParam();
  const graph::NodeId n = 48;
  const auto fam = lb::make_kt0_family(n);
  Rng rng(beta + 100);
  auto inst = lb::make_kt0_instance(fam, rng);
  advice::apply_oracle(inst, *lb::beta_probing_oracle(beta));
  const auto delays = sim::unit_delay();
  const auto result =
      sim::run_async(inst, *delays, fam.centers_awake(), 1,
                     lb::beta_probing_kernel(beta));
  ASSERT_TRUE(result.all_awake());
  const double per_center =
      std::ceil(static_cast<double>(n + 1) / (1u << beta));
  const double expected = 2.0 * n * per_center + 2.0 * n + 2;
  EXPECT_LE(static_cast<double>(result.metrics.messages), expected);
  EXPECT_GE(static_cast<double>(result.metrics.messages),
            n * per_center / 2.0);
}

INSTANTIATE_TEST_SUITE_P(Betas, BetaSweep, ::testing::Values(0u, 2u, 4u, 6u));

}  // namespace
}  // namespace rise
