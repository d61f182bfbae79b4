#include "graph/spanner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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

/// The textbook greedy spanner: each edge, in for_each_edge order, is kept
/// iff a one-sided BFS over the edges kept so far, cut at depth 2k-1, does
/// not reach its far endpoint.
Graph reference_greedy_spanner(const Graph& g, unsigned k) {
  const NodeId n = g.num_nodes();
  const std::uint64_t limit = 2 * std::uint64_t{k} - 1;
  std::vector<std::vector<NodeId>> rows(n);
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::vector<NodeId> queue;
  std::vector<Edge> kept;
  g.for_each_edge([&](NodeId u, NodeId v) {
    queue.assign(1, u);
    dist[u] = 0;
    bool reached = false;
    for (std::size_t i = 0; i < queue.size() && !reached; ++i) {
      const NodeId x = queue[i];
      if (dist[x] == limit) continue;
      for (const NodeId w : rows[x]) {
        if (dist[w] != kUnreachable) continue;
        dist[w] = dist[x] + 1;
        queue.push_back(w);
        reached = reached || w == v;
      }
    }
    for (const NodeId x : queue) dist[x] = kUnreachable;
    if (reached) return;
    rows[u].push_back(v);
    rows[v].push_back(u);
    kept.push_back({u, v});
  });
  return Graph::from_edges(n, std::move(kept));
}

/// The counts greedy_spanner must report, from plain BFS over the forest T
/// of the edges that joined two components (the greedy rule keeps each):
/// such an edge relabels the smaller side, and below the n-1 cap an edge
/// within one component is dropped by the forest walk iff dist_T <= 2k-1.
SpannerStats expected_stats(const Graph& g, unsigned k) {
  const NodeId n = g.num_nodes();
  const std::uint64_t limit = 2 * std::uint64_t{k} - 1;
  std::vector<std::vector<NodeId>> forest(n);
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::vector<NodeId> queue;
  const auto reach = [&](NodeId source) {  // fills dist; returns the tree size
    for (const NodeId x : queue) dist[x] = kUnreachable;
    queue.assign(1, source);
    dist[source] = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      for (const NodeId w : forest[queue[i]]) {
        if (dist[w] != kUnreachable) continue;
        dist[w] = dist[queue[i]] + 1;
        queue.push_back(w);
      }
    }
    return static_cast<NodeId>(queue.size());
  };
  SpannerStats stats;
  g.for_each_edge([&](NodeId u, NodeId v) {
    const NodeId u_side = reach(u);
    if (dist[v] == kUnreachable) {
      stats.relabels += std::min(u_side, reach(v));
      forest[u].push_back(v);
      forest[v].push_back(u);
    } else if (limit < n - 1) {
      ++(dist[v] <= limit ? stats.walk_drops : stats.searches);
    }
  });
  return stats;
}

/// A random tree on n nodes plus `extra` random non-tree edges.
Graph tree_plus_edges(NodeId n, NodeId extra, Rng& rng) {
  std::vector<Edge> edges = random_tree(n, rng).edge_list();
  for (NodeId added = 0; added < extra;) {
    const auto u = static_cast<NodeId>(rng.uniform(n));
    const auto v = static_cast<NodeId>(rng.uniform(n));
    if (u == v ||
        std::find_if(edges.begin(), edges.end(), [&](const Edge& e) {
          return (e.u == u && e.v == v) || (e.u == v && e.v == u);
        }) != edges.end()) {
      continue;
    }
    edges.push_back({u, v});
    ++added;
  }
  return Graph::from_edges(n, std::move(edges));
}

// The spanner's forest walk and bidirectional search only answer distance
// questions; the kept edges must be exactly the textbook greedy spanner's.
// Sparse G(n, p) near p = 1/n merges many trees in varied orders and sizes;
// grids, paths and cycles have high diameter, where forest paths are long.
TEST(Spanner, MatchesTextbookGreedySpannerOnRandomGraphs) {
  Rng rng(7);
  std::vector<std::pair<std::string, Graph>> graphs;
  for (int i = 0; i < 60; ++i) {
    const auto n = static_cast<NodeId>(40 + rng.uniform(120));
    const double c = 0.7 + 0.1 * static_cast<double>(rng.uniform(10));
    graphs.emplace_back("gnp n=" + std::to_string(n) + " c=" + std::to_string(c),
                        gnp(n, c / n, rng));
  }
  for (int i = 0; i < 50; ++i) {
    const auto n = static_cast<NodeId>(20 + rng.uniform(100));
    const double p = 0.02 + 0.01 * static_cast<double>(rng.uniform(20));
    graphs.emplace_back("connected_gnp n=" + std::to_string(n),
                        connected_gnp(n, p, rng));
  }
  for (int i = 0; i < 50; ++i) {
    const auto n = static_cast<NodeId>(10 + rng.uniform(150));
    const auto extra = static_cast<NodeId>(1 + rng.uniform(8));
    graphs.emplace_back("tree+" + std::to_string(extra) + " n=" +
                            std::to_string(n),
                        tree_plus_edges(n, extra, rng));
  }
  for (NodeId rows = 1; rows <= 8; ++rows) {
    for (const NodeId cols : {2u, 5u, 11u}) {
      graphs.emplace_back("grid " + std::to_string(rows) + "x" +
                              std::to_string(cols),
                          grid(rows, cols));
    }
  }
  for (NodeId n = 3; n <= 80; n += 7) {
    graphs.emplace_back("path " + std::to_string(n), path(n));
    graphs.emplace_back("cycle " + std::to_string(n), cycle(n));
  }
  ASSERT_GE(graphs.size(), 200u);
  for (const auto& [name, g] : graphs) {
    // The last k makes 2k-1 >= n-1: the greedy spanner is a spanning forest.
    for (const unsigned k : {2u, 3u, 4u, 5u, 10u, g.num_nodes() / 2 + 1}) {
      SpannerStats stats;
      const Graph s = greedy_spanner(g, k, &stats);
      ASSERT_EQ(s.edge_list(), reference_greedy_spanner(g, k).edge_list())
          << name << " k=" << k;
      // Re-rooting the smaller tree and re-deriving its depths are not
      // visible in the output, only in these counts.
      const SpannerStats want = expected_stats(g, k);
      EXPECT_EQ(stats.relabels, want.relabels) << name << " k=" << k;
      EXPECT_EQ(stats.walk_drops, want.walk_drops) << name << " k=" << k;
      EXPECT_EQ(stats.searches, want.searches) << name << " k=" << k;
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
