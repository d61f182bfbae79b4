#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "app/spec.hpp"
#include "graph/algorithms.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace rise::graph {
namespace {

TEST(Generators, Path) {
  const Graph g = path(10);
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(5), 2u);
  EXPECT_EQ(diameter(g), 9u);
}

TEST(Generators, Cycle) {
  const Graph g = cycle(8);
  EXPECT_EQ(g.num_edges(), 8u);
  for (NodeId u = 0; u < 8; ++u) EXPECT_EQ(g.degree(u), 2u);
  EXPECT_EQ(diameter(g), 4u);
  EXPECT_EQ(girth(g), 8u);
}

TEST(Generators, Star) {
  const Graph g = star(12);
  EXPECT_EQ(g.degree(0), 11u);
  for (NodeId u = 1; u < 12; ++u) EXPECT_EQ(g.degree(u), 1u);
  EXPECT_EQ(diameter(g), 2u);
}

TEST(Generators, Complete) {
  const Graph g = complete(7);
  EXPECT_EQ(g.num_edges(), 21u);
  EXPECT_EQ(diameter(g), 1u);
  EXPECT_EQ(girth(g), 3u);
}

TEST(Generators, CompleteBipartite) {
  const Graph g = complete_bipartite(3, 5);
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_edges(), 15u);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 5u);
  for (NodeId u = 3; u < 8; ++u) EXPECT_EQ(g.degree(u), 3u);
  EXPECT_EQ(girth(g), 4u);
}

TEST(Generators, Grid) {
  const Graph g = grid(4, 6);
  EXPECT_EQ(g.num_nodes(), 24u);
  EXPECT_EQ(g.num_edges(), 4u * 5 + 6u * 3);
  EXPECT_EQ(diameter(g), 8u);  // (4-1)+(6-1)
}

TEST(Generators, Torus) {
  const Graph g = torus(4, 4);
  EXPECT_EQ(g.num_nodes(), 16u);
  for (NodeId u = 0; u < 16; ++u) EXPECT_EQ(g.degree(u), 4u);
  EXPECT_EQ(girth(g), 4u);
}

TEST(Generators, Hypercube) {
  const Graph g = hypercube(5);
  EXPECT_EQ(g.num_nodes(), 32u);
  for (NodeId u = 0; u < 32; ++u) EXPECT_EQ(g.degree(u), 5u);
  EXPECT_EQ(diameter(g), 5u);
  EXPECT_EQ(girth(g), 4u);
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(1);
  for (NodeId n : {1u, 2u, 3u, 10u, 100u}) {
    const Graph g = random_tree(n, rng);
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_EQ(g.num_edges(), static_cast<std::size_t>(n) - 1);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(girth(g), kUnreachable);  // acyclic
  }
}

TEST(Generators, GnpDensityMatchesP) {
  Rng rng(2);
  const Graph g = gnp(100, 0.2, rng);
  const double expected = 0.2 * (100.0 * 99 / 2);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 150);
}

TEST(Generators, GnpGeometricSkipMatchesBernoulliDistribution) {
  // Differential distribution pin for the geometric-skip sampler: each of
  // the n(n-1)/2 pairs must still be included independently with probability
  // p, exactly as the old per-pair coin-flip loop did (same seeds produce
  // different graphs, so the *distribution* is what gets pinned). Counting
  // per-pair inclusions over many seeds, (count - Sp)²/(Sp(1-p)) summed over
  // pairs is approximately chi-square with T degrees of freedom; the bounds
  // are ~±6 standard deviations, so a correct sampler passes with margin and
  // a biased one (wrong skip law, off-by-one in the pair walk) lands far
  // outside.
  constexpr NodeId kN = 12;
  constexpr double kP = 0.3;
  constexpr int kSeeds = 400;
  constexpr std::size_t kPairs = kN * (kN - 1) / 2;
  std::vector<int> hits(kPairs, 0);
  std::size_t total_edges = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(7000 + seed);
    const Graph g = gnp(kN, kP, rng);
    total_edges += g.num_edges();
    g.for_each_edge([&](NodeId u, NodeId v) {
      const std::size_t row_start = u * kN - u * (u + 1) / 2;
      ++hits[row_start + (v - u - 1)];
    });
  }
  const double mean = kSeeds * kP;
  const double var = kSeeds * kP * (1.0 - kP);
  double chi2 = 0.0;
  for (int h : hits) {
    const double d = h - mean;
    chi2 += d * d / var;
  }
  // chi-square(66): mean 66, sd sqrt(132) ~ 11.5.
  EXPECT_GT(chi2, 66.0 - 6 * 11.5);
  EXPECT_LT(chi2, 66.0 + 6 * 11.5);
  // Aggregate edge count sanity: binomial(S*T, p) with sd ~ 74.
  EXPECT_NEAR(static_cast<double>(total_edges), kSeeds * kPairs * kP, 450);
}

TEST(Generators, GnpExtremeProbabilities) {
  Rng rng(5);
  EXPECT_EQ(gnp(50, 0.0, rng).num_edges(), 0u);
  const Graph full = gnp(20, 1.0, rng);
  EXPECT_EQ(full.num_edges(), 190u);
  EXPECT_EQ(gnp(1, 0.5, rng).num_edges(), 0u);
}

TEST(Generators, ConnectedGnpIsConnected) {
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    const Graph g = connected_gnp(60, 0.02, rng);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, GnpRejectsProbabilitiesOutsideUnitInterval) {
  Rng rng(6);
  for (const double p : {-1.0, 2.0, std::nan(""),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(gnp(50, p, rng), CheckError) << p;
    EXPECT_THROW(connected_gnp(50, p, rng), CheckError) << p;
  }
}

TEST(Generators, RandomRegularIsRegular) {
  Rng rng(4);
  const Graph g = random_regular(50, 4, rng);
  EXPECT_EQ(g.num_nodes(), 50u);
  for (NodeId u = 0; u < 50; ++u) EXPECT_EQ(g.degree(u), 4u);
}

TEST(Generators, RandomRegularRejectsOddProduct) {
  Rng rng(5);
  EXPECT_THROW(random_regular(5, 3, rng), CheckError);
}

TEST(Generators, Lollipop) {
  const Graph g = lollipop(6, 10);
  EXPECT_EQ(g.num_nodes(), 16u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(15), 1u);  // path tip
  EXPECT_EQ(g.degree(0), 6u);   // clique node holding the path
}

TEST(Generators, Barbell) {
  const Graph g = barbell(5, 3);
  EXPECT_EQ(g.num_nodes(), 13u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter(g), 3u + 2u + 1u);  // through the bridge, one hop into each clique... measured
}

TEST(Generators, BarabasiAlbertBasics) {
  Rng rng(7);
  const Graph g = barabasi_albert(300, 3, rng);
  EXPECT_EQ(g.num_nodes(), 300u);
  // Seed clique K_4 (6 edges) + 3 edges per subsequent node.
  EXPECT_EQ(g.num_edges(), 6u + 296u * 3);
  EXPECT_TRUE(is_connected(g));
  for (NodeId u = 4; u < 300; ++u) EXPECT_GE(g.degree(u), 3u);
}

TEST(Generators, BarabasiAlbertIsHeavyTailed) {
  Rng rng(8);
  const Graph g = barabasi_albert(500, 2, rng);
  // Preferential attachment produces hubs far above the mean degree (~4).
  EXPECT_GE(g.max_degree(), 20u);
}

TEST(Generators, CompletePlusPendant) {
  const Graph g = complete_plus_pendant(20);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_EQ(g.degree(19), 1u);
  EXPECT_EQ(g.degree(0), 19u);  // clique + pendant
  EXPECT_EQ(diameter(g), 2u);
}

// Edge lists (and the rng draw that follows each graph), recorded while
// random_tree kept its Prüfer leaves in a std::set, connected_gnp its tree
// edges in a hash set and torus its seen pairs in a std::set: the flat
// rewrites must emit the same edges in the same order from the same draws.
TEST(Generators, MatchPinnedEdgeHashes) {
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"tree:2", 6787394839880231105ULL},
      {"tree:3", 2013722454606762659ULL},
      {"tree:17", 13626266015083756509ULL},
      {"tree:1000", 8740784131543986014ULL},
      {"cgnp:64:0.1", 14265249730100259395ULL},
      {"cgnp:300:0.05", 4219164800513284578ULL},
      {"cgnp:1000:0.008", 18159221538714743221ULL},
      {"gnp:200:0.03", 6381720342121650798ULL},
      {"torus:3x3", 9444654616709339605ULL},
      {"torus:4x7", 4169446392183742259ULL},
      {"torus:10x10", 6249118894738477693ULL}};
  for (const auto& [spec, hash] : pins) {
    std::string text;
    for (std::uint64_t seed : {1u, 2u, 3u, 17u}) {
      Rng rng(seed);
      const Graph g = app::parse_graph_spec(spec, rng);
      text += std::to_string(g.num_nodes()) + ':';
      g.for_each_edge([&](NodeId u, NodeId v) {
        text += std::to_string(u) + '-' + std::to_string(v) + ',';
      });
      text += '|' + std::to_string(rng()) + '\n';
    }
    EXPECT_EQ(test::fnv1a(text), hash) << spec;
  }
}

}  // namespace
}  // namespace rise::graph
