#include "advice/spanner_scheme.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/algorithms.hpp"
#include "graph/spanner.hpp"
#include "test_util.hpp"

namespace rise::advice {
namespace {

using sim::Knowledge;

sim::Instance advised_instance(const graph::Graph& g, unsigned k,
                               std::uint64_t seed = 1) {
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST,
                                  seed);
  apply_oracle(inst, *spanner_oracle(k));
  return inst;
}

TEST(SpannerScheme, WakesAllOnCatalogForSeveralK) {
  Rng rng(1);
  for (unsigned k : {1u, 2u, 3u}) {
    for (const auto& [name, g] : test::graph_catalog()) {
      const auto inst = advised_instance(g, k);
      const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.2, rng);
      const auto result =
          test::run_async_unit(inst, schedule, spanner_kernel());
      EXPECT_TRUE(result.all_awake()) << name << " k=" << k;
    }
  }
}

TEST(SpannerScheme, MessagesBoundedBySpannerEdges) {
  // Theorem 6: <= 2 messages per directed spanner edge.
  Rng rng(2);
  for (unsigned k : {2u, 3u}) {
    const auto g = graph::connected_gnp(120, 0.15, rng);
    const auto spanner = graph::greedy_spanner(g, k);
    const auto inst = advised_instance(g, k, 7);
    const auto result = test::run_async_unit(inst, sim::wake_all(120),
                                             spanner_kernel());
    ASSERT_TRUE(result.all_awake());
    EXPECT_LE(result.metrics.messages, 4ull * spanner.num_edges());
  }
}

TEST(SpannerScheme, MessagesMuchLessThanFloodingOnDenseGraphs) {
  Rng rng(3);
  const auto g = graph::connected_gnp(150, 0.4, rng);
  const auto inst = advised_instance(g, 3);
  const auto result =
      test::run_async_unit(inst, sim::wake_all(150), spanner_kernel());
  ASSERT_TRUE(result.all_awake());
  EXPECT_LT(result.metrics.messages, g.num_edges());  // flooding would be 2m
}

TEST(SpannerScheme, TimeBoundKRhoLogN) {
  Rng rng(4);
  for (unsigned k : {2u, 3u}) {
    const auto g = graph::connected_gnp(100, 0.1, rng);
    const auto inst = advised_instance(g, k);
    const auto result = test::run_async_unit(inst, sim::wake_single(0),
                                             spanner_kernel());
    ASSERT_TRUE(result.all_awake());
    const double rho = graph::awake_distance(g, {0});
    const double logn = std::log2(100.0);
    // stretch (2k-1) per hop, 2*log(deg)+2 rounds per sibling heap.
    EXPECT_LE(static_cast<double>(result.wakeup_span()),
              (2.0 * k - 1) * (rho + 1) * (2 * logn + 4))
        << "k=" << k;
  }
}

TEST(SpannerScheme, AdviceScalesWithSpannerDegree) {
  Rng rng(5);
  const graph::NodeId n = 150;
  const auto g = graph::connected_gnp(n, 0.3, rng);
  for (unsigned k : {2u, 3u, 4u}) {
    auto inst =
        test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
    const auto stats = apply_oracle(inst, *spanner_oracle(k));
    const auto spanner = graph::greedy_spanner(g, k);
    const double max_deg = spanner.max_degree();
    const double logn = std::log2(static_cast<double>(n));
    EXPECT_LE(static_cast<double>(stats.max_bits),
              (max_deg + 1) * (6 * logn + 6))
        << "k=" << k;
  }
}

TEST(SpannerScheme, LargerKMeansFewerMessages) {
  // The k-sweep trade-off: message counts decrease (weakly) in k on a dense
  // graph.
  Rng rng(6);
  const auto g = graph::connected_gnp(120, 0.5, rng);
  std::uint64_t prev = ~0ull;
  for (unsigned k : {1u, 2u, 4u}) {
    const auto inst = advised_instance(g, k, 3);
    const auto result =
        test::run_async_unit(inst, sim::wake_all(120), spanner_kernel());
    ASSERT_TRUE(result.all_awake());
    EXPECT_LE(result.metrics.messages, prev) << "k=" << k;
    prev = result.metrics.messages;
  }
}

TEST(Corollary2, PolylogAdviceAndNearLinearMessages) {
  Rng rng(7);
  const graph::NodeId n = 256;
  const auto g = graph::connected_gnp(n, 0.12, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  const auto scheme = corollary2_scheme();
  const auto stats = apply_oracle(inst, *scheme.oracle);
  const double logn = std::log2(static_cast<double>(n));
  EXPECT_LE(static_cast<double>(stats.max_bits), 30.0 * logn * logn);
  const auto result =
      test::run_async_unit(inst, sim::wake_all(n), scheme.kernel);
  ASSERT_TRUE(result.all_awake());
  EXPECT_LE(static_cast<double>(result.metrics.messages),
            20.0 * n * logn);
}

TEST(SpannerScheme, CongestSafe) {
  Rng rng(8);
  const auto g = graph::connected_gnp(200, 0.2, rng);
  const auto inst = advised_instance(g, 2);
  EXPECT_NO_THROW(
      test::run_async_unit(inst, sim::wake_single(0), spanner_kernel()));
}

}  // namespace
}  // namespace rise::advice
