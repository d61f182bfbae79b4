#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"

namespace rise::graph {
namespace {

TEST(Bfs, DistancesOnPath) {
  const Graph g = path(6);
  const auto dist = bfs_distances(g, 2);
  EXPECT_EQ(dist[0], 2u);
  EXPECT_EQ(dist[2], 0u);
  EXPECT_EQ(dist[5], 3u);
}

TEST(Bfs, UnreachableMarked) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(MultiSourceBfs, NearestSourceWins) {
  const Graph g = path(10);
  const auto dist = multi_source_bfs(g, {0, 9});
  EXPECT_EQ(dist[4], 4u);
  EXPECT_EQ(dist[5], 4u);
  EXPECT_EQ(dist[9], 0u);
}

TEST(AwakeDistance, MatchesDefinition) {
  // rho_awk = max_u dist(A0, u), Eq. (1).
  const Graph g = path(10);
  EXPECT_EQ(awake_distance(g, {0}), 9u);
  EXPECT_EQ(awake_distance(g, {5}), 5u);
  EXPECT_EQ(awake_distance(g, {0, 9}), 4u);
  std::vector<NodeId> all;
  for (NodeId u = 0; u < 10; ++u) all.push_back(u);
  EXPECT_EQ(awake_distance(g, all), 0u);
}

TEST(AwakeDistance, UpperBoundedByDiameter) {
  Rng rng(8);
  const Graph g = connected_gnp(50, 0.08, rng);
  const auto d = diameter(g);
  for (NodeId u = 0; u < 50; u += 7) {
    EXPECT_LE(awake_distance(g, {u}), d);
  }
}

TEST(AwakeDistance, EmptyOrDisconnected) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  EXPECT_EQ(awake_distance(g, {}), kUnreachable);
  EXPECT_EQ(awake_distance(g, {0}), kUnreachable);  // node 2 unreachable
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(diameter(path(5)), 4u);
  EXPECT_EQ(diameter(cycle(10)), 5u);
  EXPECT_EQ(diameter(complete(9)), 1u);
  EXPECT_EQ(diameter(star(30)), 2u);
}

TEST(Connectivity, Components) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_FALSE(is_connected(g));
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[3]);
}

TEST(Girth, KnownValues) {
  EXPECT_EQ(girth(complete(4)), 3u);
  EXPECT_EQ(girth(cycle(17)), 17u);
  EXPECT_EQ(girth(grid(3, 3)), 4u);
  EXPECT_EQ(girth(path(10)), kUnreachable);
  EXPECT_EQ(girth(complete_bipartite(3, 3)), 4u);
  EXPECT_EQ(girth(hypercube(4)), 4u);
}

TEST(Girth, PetersenGraph) {
  // The Petersen graph: 3-regular, girth 5.
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 5; ++i) {
    edges.push_back({i, (i + 1) % 5});            // outer cycle
    edges.push_back({5 + i, 5 + ((i + 2) % 5)});  // inner pentagram
    edges.push_back({i, 5 + i});                  // spokes
  }
  const Graph g = Graph::from_edges(10, std::move(edges));
  EXPECT_EQ(girth(g), 5u);
  EXPECT_EQ(diameter(g), 2u);
}

TEST(BfsTree, StructureOnGrid) {
  const Graph g = grid(4, 4);
  const auto tree = bfs_tree(g, 0);
  EXPECT_EQ(tree.root, 0u);
  EXPECT_EQ(tree.parent[0], kInvalidNode);
  EXPECT_EQ(tree.depth[0], 0u);
  EXPECT_EQ(tree.depth[15], 6u);
  // Every non-root has a parent at depth-1.
  std::size_t edge_count = 0;
  for (NodeId u = 1; u < 16; ++u) {
    ASSERT_NE(tree.parent[u], kInvalidNode);
    EXPECT_EQ(tree.depth[u], tree.depth[tree.parent[u]] + 1);
    ++edge_count;
  }
  EXPECT_EQ(edge_count, 15u);
  EXPECT_EQ(tree_degree_sum(tree), 2u * 15);
}

TEST(BfsTree, ChildrenConsistentWithParents) {
  Rng rng(21);
  const Graph g = connected_gnp(40, 0.1, rng);
  const auto tree = bfs_tree(g, 5);
  std::size_t listed = 0;
  for (NodeId u = 0; u < 40; ++u) {
    const auto kids = tree.children(u);
    EXPECT_TRUE(std::is_sorted(kids.begin(), kids.end()));
    for (NodeId c : kids) {
      EXPECT_EQ(tree.parent[c], u);
    }
    listed += kids.size();
  }
  EXPECT_EQ(listed, 39u);  // every node but the root, once
  EXPECT_TRUE(tree.spanning());
}

TEST(BfsTree, UnreachableNodesHaveNoParentAndNoChildren) {
  // Two disjoint paths 0-1-2 and 3-4: the tree from 1 reaches 0, 1, 2 only.
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  const auto tree = bfs_tree(g, 1);
  EXPECT_FALSE(tree.spanning());
  EXPECT_EQ(tree.children(1).size(), 2u);
  for (NodeId u : {3u, 4u}) {
    EXPECT_EQ(tree.parent[u], kInvalidNode);
    EXPECT_EQ(tree.depth[u], kUnreachable);
    EXPECT_TRUE(tree.children(u).empty());
  }
}

TEST(BfsTree, DepthsAreBfsDistances) {
  Rng rng(22);
  const Graph g = connected_gnp(60, 0.07, rng);
  const auto tree = bfs_tree(g, 0);
  const auto dist = bfs_distances(g, 0);
  for (NodeId u = 0; u < 60; ++u) EXPECT_EQ(tree.depth[u], dist[u]);
}

}  // namespace
}  // namespace rise::graph
