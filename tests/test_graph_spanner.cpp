#include "graph/spanner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace rise::graph {
namespace {

TEST(Spanner, K1IsIdentity) {
  const Graph g = complete(10);
  const Graph s = greedy_spanner(g, 1);
  EXPECT_EQ(s.num_edges(), g.num_edges());
}

TEST(Spanner, TreeIsItsOwnSpanner) {
  Rng rng(1);
  const Graph g = random_tree(50, rng);
  const Graph s = greedy_spanner(g, 3);
  EXPECT_EQ(s.num_edges(), g.num_edges());  // no edge is redundant in a tree
}

TEST(Spanner, CompleteGraphK2) {
  // A 3-spanner of K_n: the greedy spanner has girth > 4, so it keeps
  // far fewer than n^2 edges while preserving distances up to 3x.
  const Graph g = complete(40);
  const Graph s = greedy_spanner(g, 2);
  EXPECT_LT(s.num_edges(), g.num_edges() / 3);
  EXPECT_TRUE(verify_spanner(g, s, 3));
}

TEST(Spanner, StretchVerifiedAcrossWorkloads) {
  Rng rng(2);
  for (unsigned k : {2u, 3u, 4u}) {
    const Graph g = connected_gnp(80, 0.15, rng);
    const Graph s = greedy_spanner(g, k);
    EXPECT_TRUE(verify_spanner(g, s, 2 * k - 1))
        << "stretch violated for k=" << k;
    EXPECT_TRUE(is_connected(s));
  }
}

TEST(Spanner, GirthExceeds2k) {
  // The defining property of the greedy spanner.
  Rng rng(3);
  const Graph g = connected_gnp(70, 0.2, rng);
  for (unsigned k : {2u, 3u}) {
    const Graph s = greedy_spanner(g, k);
    const auto gi = girth(s);
    EXPECT_TRUE(gi == kUnreachable || gi > 2 * k)
        << "girth " << gi << " for k=" << k;
  }
}

TEST(Spanner, EdgeCountBound) {
  // |E(S)| <= n^{1+1/k} + n (girth argument).
  Rng rng(4);
  const Graph g = connected_gnp(100, 0.3, rng);
  for (unsigned k : {2u, 3u, 4u}) {
    const Graph s = greedy_spanner(g, k);
    const double n = 100;
    EXPECT_LE(static_cast<double>(s.num_edges()),
              std::pow(n, 1.0 + 1.0 / k) + n);
  }
}

TEST(Spanner, PreservesConnectivityOnSparseGraphs) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = connected_gnp(60, 0.05, rng);
    const Graph s = greedy_spanner(g, 5);
    EXPECT_TRUE(is_connected(s));
  }
}

std::uint64_t edge_list_hash(const Graph& s) {
  std::string text;
  for (const Edge& e : s.edge_list()) {
    text += std::to_string(e.u) + ' ' + std::to_string(e.v) + '\n';
  }
  return test::fnv1a(text);
}

// Hashes of the kept edge lists, recorded with the one-sided depth-bounded
// BFS that answered every "dist_S(u, v) <= 2k-1?" question before the
// union-find shortcut and the bidirectional search: the greedy rule decides
// the output, so how the distance question is answered must not change it.
TEST(Spanner, EdgeListsMatchPinnedHashes) {
  const unsigned ks[] = {2, 3, 5, 10};
  struct Pin {
    std::string graph;
    std::uint64_t hash[4];  // [k]
  };
  const std::vector<Pin> pins = {
      {"connected_gnp(1000, 0.008), Rng(1)",
       {9926497379397942010ULL, 12317169239766157732ULL,
        11813849320843965200ULL, 12563275007321411403ULL}},
      {"connected_gnp(1000, 0.008), Rng(2)",
       {9230790850675145192ULL, 4980219598787733577ULL,
        5807137910848470361ULL, 9835648299326446156ULL}},
      {"connected_gnp(1000, 0.008), Rng(3)",
       {6028396778112372717ULL, 16142891347094380388ULL,
        12444222357452923213ULL, 155341460034249933ULL}},
      {"connected_gnp(1000, 0.008), Rng(4)",
       {8301831496447423063ULL, 10489217331300082607ULL,
        3208298946584299377ULL, 18239598056690034363ULL}},
      {"grid:30x30",
       {3524297803093081091ULL, 3422302445808296349ULL,
        4810362298382630589ULL, 13126115991926847912ULL}},
  };
  for (std::size_t i = 0; i < pins.size(); ++i) {
    Rng rng(i + 1);
    const Graph g = i < 4 ? connected_gnp(1000, 0.008, rng) : grid(30, 30);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(edge_list_hash(greedy_spanner(g, ks[j])), pins[i].hash[j])
          << pins[i].graph << " k=" << ks[j];
    }
  }
}

// Once 2k-1 >= n-1 every spanner path is short enough, so the greedy
// spanner is a spanning forest: n minus the number of components edges.
// 2k-1 overflows 32 bits from k = 2^31 on.
TEST(Spanner, HugeKGivesTheSpanningForest) {
  Rng rng(6);
  const Graph connected = connected_gnp(300, 0.05, rng);
  const Graph scattered = gnp(300, 0.006, rng);
  for (const Graph* g : {&connected, &scattered}) {
    const auto components = connected_components(*g);
    const std::uint32_t count =
        components.empty()
            ? 0
            : 1 + *std::max_element(components.begin(), components.end());
    for (const unsigned k : {300u, 2147483647u, 2147483648u, 4294967295u}) {
      const Graph s = greedy_spanner(*g, k);
      EXPECT_EQ(s.num_edges(), g->num_nodes() - count) << "k=" << k;
      EXPECT_EQ(connected_components(s), components) << "k=" << k;
      EXPECT_TRUE(verify_spanner(*g, s, g->num_nodes() - 1)) << "k=" << k;
      EXPECT_TRUE(verify_spanner(*g, s, k)) << "k=" << k;
    }
  }
}

TEST(VerifySpanner, RejectsNonSubgraph) {
  const Graph g = path(4);
  const Graph s = Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 3}});  // 0-3 not in g
  EXPECT_FALSE(verify_spanner(g, s, 3));
}

TEST(VerifySpanner, RejectsExcessiveStretch) {
  const Graph g = cycle(12);
  // Remove one edge: stretch for that edge becomes 11.
  std::vector<Edge> edges = g.edge_list();
  edges.pop_back();
  const Graph s = Graph::from_edges(12, std::move(edges));
  EXPECT_FALSE(verify_spanner(g, s, 3));
  EXPECT_TRUE(verify_spanner(g, s, 11));
}

}  // namespace
}  // namespace rise::graph
