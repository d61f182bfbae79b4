// Randomized property sweeps over the graph substrate: invariants that must
// hold for every generated instance, checked across many seeds.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/spanner.hpp"

namespace rise::graph {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, BfsTreeDepthsEqualDistancesEverywhere) {
  Rng rng(GetParam());
  const Graph g = connected_gnp(80, 0.07, rng);
  for (NodeId root : {NodeId{0}, NodeId{40}, NodeId{79}}) {
    const auto tree = bfs_tree(g, root);
    const auto dist = bfs_distances(g, root);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(tree.depth[u], dist[u]);
    }
  }
}

TEST_P(SeedSweep, BfsTreeHasExactlyNMinus1Edges) {
  Rng rng(GetParam() + 50);
  const Graph g = connected_gnp(70, 0.08, rng);
  const auto tree = bfs_tree(g, 0);
  std::size_t children = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) children += tree.children(u).size();
  EXPECT_EQ(children, static_cast<std::size_t>(g.num_nodes()) - 1);
}

TEST_P(SeedSweep, TriangleInequalityOfBfsDistances) {
  Rng rng(GetParam() + 100);
  const Graph g = connected_gnp(50, 0.1, rng);
  const auto d0 = bfs_distances(g, 0);
  const auto d1 = bfs_distances(g, 1);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_LE(d0[u], d0[1] + d1[u]);
    EXPECT_LE(d1[u], d1[0] + d0[u]);
  }
}

TEST_P(SeedSweep, SpannerOfSpannerIsStillASpanner) {
  // Composing spanners multiplies stretch; verify (3-spanner of 3-spanner)
  // is a 9-spanner of the original.
  Rng rng(GetParam() + 200);
  const Graph g = connected_gnp(60, 0.2, rng);
  const Graph s1 = greedy_spanner(g, 2);
  const Graph s2 = greedy_spanner(s1, 2);
  EXPECT_TRUE(verify_spanner(g, s1, 3));
  EXPECT_TRUE(verify_spanner(s1, s2, 3));
  EXPECT_TRUE(verify_spanner(g, s2, 9));
}

TEST_P(SeedSweep, AwakeDistanceIsMonotoneInAwakeSet) {
  Rng rng(GetParam() + 300);
  const Graph g = connected_gnp(60, 0.08, rng);
  std::vector<NodeId> awake{0};
  std::uint32_t prev = awake_distance(g, awake);
  for (NodeId extra : {NodeId{10}, NodeId{20}, NodeId{30}, NodeId{59}}) {
    awake.push_back(extra);
    const std::uint32_t now = awake_distance(g, awake);
    EXPECT_LE(now, prev);  // more awake nodes never increase the distance
    prev = now;
  }
}

TEST_P(SeedSweep, GirthOfTreePlusOneEdgeIsCycleLength) {
  Rng rng(GetParam() + 400);
  const Graph tree = random_tree(40, rng);
  // Add one extra edge {a, b}: girth becomes dist(a,b) + 1.
  NodeId a = static_cast<NodeId>(rng.uniform(40));
  NodeId b = static_cast<NodeId>(rng.uniform(40));
  if (a == b || tree.has_edge(a, b)) return;  // skip degenerate draw
  const auto dist = bfs_distances(tree, a);
  auto edges = tree.edge_list();
  edges.push_back({a, b});
  const Graph g = Graph::from_edges(40, std::move(edges));
  EXPECT_EQ(girth(g), dist[b] + 1);
}

TEST_P(SeedSweep, DegreeSumIsTwiceEdges) {
  Rng rng(GetParam() + 500);
  const Graph g = gnp(100, 0.05, rng);
  std::size_t sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) sum += g.degree(u);
  EXPECT_EQ(sum, 2 * g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

TEST(GraphProperties, DiameterIsMaxEccentricity) {
  Rng rng(42);
  const Graph g = connected_gnp(40, 0.1, rng);
  std::uint32_t max_ecc = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = bfs_distances(g, u);
    max_ecc = std::max(max_ecc,
                       *std::max_element(dist.begin(), dist.end()));
  }
  EXPECT_EQ(diameter(g), max_ecc);
}

TEST(GraphProperties, ConnectedComponentsPartition) {
  Rng rng(43);
  const Graph g = gnp(80, 0.02, rng);
  const auto comp = connected_components(g);
  // Edges never cross components.
  for (const Edge& e : g.edge_list()) EXPECT_EQ(comp[e.u], comp[e.v]);
  // Component ids are dense 0..max.
  const auto max_id = *std::max_element(comp.begin(), comp.end());
  std::vector<bool> seen(max_id + 1, false);
  for (auto c : comp) seen[c] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

}  // namespace
}  // namespace rise::graph
