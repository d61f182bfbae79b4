// Multiplicative graph spanners.
//
// Theorem 6 of the paper encodes "the edges of a suitable graph spanner" as
// advice: a (2k-1)-spanner has O(n^{1+1/k}) edges, and flooding restricted to
// spanner edges multiplies the wake-up time by at most the stretch while
// cutting messages from Theta(m) to O(n^{1+1/k}).
//
// We implement the classic greedy spanner (Althöfer, Das, Dobkin, Joseph,
// Soares 1993): process edges in order and keep an edge only if the current
// spanner distance between its endpoints exceeds 2k-1. The result is a
// (2k-1)-spanner with at most n^{1+1/k} + n edges (its girth exceeds 2k).
//
// Each "is dist_S(u, v) <= 2k-1?" question is answered in three stages,
// over a rooted spanning forest T of S (the kept edges that joined two
// trees; each node knows its tree, parent and depth):
//   1. u and v in different trees of T: keep the edge, without a search.
//   2. One tree, and the walk up the parents from both ends meets within
//      2k-1 steps: drop it (dist_S <= dist_T <= 2k-1).
//   3. Otherwise a bidirectional depth-bounded BFS over S decides: each step
//      expands the smaller frontier by a whole level, until the two radii
//      sum to 2k-1, a frontier empties or the frontiers meet.
// A kept edge that joins two trees re-roots the smaller one at its endpoint
// (its parent path is reversed) and re-derives that tree's labels and depths
// by a walk over its S edges, so a node is relabelled O(log n) times. Every
// stage answers exactly, so the output depends only on the greedy rule and
// the edge order (for_each_edge), not on how the question is answered. The
// stretch is computed in 64 bits and capped at n-1 (no path is longer), so
// a huge k gives the spanning forest from stage 1 alone. The forest, the
// search's queues and its stamp array are allocated once per call.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace rise::graph {

/// How greedy_spanner answered its distance questions.
struct SpannerStats {
  std::uint64_t relabels = 0;    // nodes moved into another tree (stage 1)
  std::uint64_t walk_drops = 0;  // edges dropped by the forest walk (stage 2)
  std::uint64_t searches = 0;    // questions left to the search (stage 3)
};

/// Greedy (2k-1)-spanner. k >= 1; k = 1 returns the graph itself. If
/// `stats` is given, it receives this call's counts.
Graph greedy_spanner(const Graph& g, unsigned k, SpannerStats* stats = nullptr);

/// True iff `spanner` is a subgraph of `g` spanning the same node set with
/// dist_spanner(u, v) <= stretch * dist_g(u, v) for every edge {u,v} of g
/// (which implies the bound for all pairs). Uses the same bounded search.
bool verify_spanner(const Graph& g, const Graph& spanner, unsigned stretch);

}  // namespace rise::graph
