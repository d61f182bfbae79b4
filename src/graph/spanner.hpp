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
// Each "is dist_S(u, v) <= 2k-1?" question is answered in two stages. A
// union-find over the kept edges keeps, without a search, every edge whose
// endpoints lie in different components of S (the spanning-forest edges).
// Within one component a bidirectional depth-bounded BFS decides it: each
// step expands the smaller frontier by a whole level, until the two radii
// sum to 2k-1, a frontier empties or the frontiers meet. Both stages answer
// exactly, so the output depends only on the greedy rule and the edge order
// (for_each_edge), not on how the question is answered. The stretch is
// computed in 64 bits and capped at n-1 (no path is longer), so a huge k
// gives the spanning forest from the union-find alone. The search's queues
// and stamp array are allocated once per call, not per edge.
#pragma once

#include "graph/graph.hpp"

namespace rise::graph {

/// Greedy (2k-1)-spanner. k >= 1; k = 1 returns the graph itself.
Graph greedy_spanner(const Graph& g, unsigned k);

/// True iff `spanner` is a subgraph of `g` spanning the same node set with
/// dist_spanner(u, v) <= stretch * dist_g(u, v) for every edge {u,v} of g
/// (which implies the bound for all pairs). Uses the same bounded search.
bool verify_spanner(const Graph& g, const Graph& spanner, unsigned stretch);

}  // namespace rise::graph
