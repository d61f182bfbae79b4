#include "advice/spanner_scheme.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/spanner.hpp"
#include "support/bitio.hpp"
#include "support/check.hpp"
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

// Every node's advice bits, recorded while the oracle kept each node's
// records in a std::map: the port-sorted flat records encode the same bits.
TEST(SpannerScheme, AdviceBitsMatchPinnedHashes) {
  Rng rng(9);
  const auto g = graph::connected_gnp(300, 0.05, rng);
  const std::pair<unsigned, std::uint64_t> pins[] = {
      {2, 2937196202208637985ULL},
      {3, 15771730048981281585ULL},
      {0, 2382020430740658077ULL}};  // k = 0: Corollary 2
  for (const auto& [k, hash] : pins) {
    auto inst = test::make_instance(g, Knowledge::KT0,
                                    sim::Bandwidth::CONGEST, 4);
    apply_oracle(inst, k == 0 ? *corollary2_scheme().oracle
                              : *spanner_oracle(k));
    std::string text;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      text += std::to_string(inst.advice(v).size());
      for (const std::uint64_t word : inst.advice(v).words()) {
        text += ' ' + std::to_string(word);
      }
      text += '\n';
    }
    EXPECT_EQ(test::fnv1a(text), hash) << "k=" << k;
  }
}

// Decoded records go to the node's own slots, one per port: advice that
// claims more records than the node has ports is rejected, not written
// into a neighbor's slots.
TEST(SpannerScheme, RejectsMoreRecordsThanPorts) {
  const auto g = graph::path(3);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  BitWriter w;
  w.write_gamma(3);  // node degrees are at most 2
  w.write_bit(false);
  for (std::uint64_t port = 0; port < 3; ++port) {
    w.write_gamma(port);
    w.write_bit(false);
    w.write_bit(false);
  }
  inst.set_advice(std::vector<BitString>(3, w.take()));
  EXPECT_THROW(test::run_async_unit(inst, sim::wake_single(0),
                                    spanner_kernel()),
               CheckError);
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
