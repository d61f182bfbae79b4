// Graph generators used as workloads throughout the test suite, the examples,
// and the benchmark harness. All randomized generators are deterministic
// given the Rng passed in.
#pragma once

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace rise::graph {

/// Simple path v0 - v1 - ... - v(n-1).
Graph path(NodeId n);

/// Cycle on n >= 3 nodes.
Graph cycle(NodeId n);

/// Star: node 0 is the hub connected to 1..n-1.
Graph star(NodeId n);

/// Complete graph K_n.
Graph complete(NodeId n);

/// Complete bipartite graph K_{a,b}; the first a nodes form the left side.
Graph complete_bipartite(NodeId a, NodeId b);

/// rows x cols grid, 4-neighborhood.
Graph grid(NodeId rows, NodeId cols);

/// rows x cols torus (grid with wraparound); rows, cols >= 3.
Graph torus(NodeId rows, NodeId cols);

/// Hypercube on 2^dim nodes.
Graph hypercube(unsigned dim);

/// Uniform random tree on n nodes (random Prüfer sequence).
Graph random_tree(NodeId n, Rng& rng);

/// Erdős–Rényi G(n, p). May be disconnected.
Graph gnp(NodeId n, double p, Rng& rng);

/// G(n, p), p in [0, 1], unioned with a uniform random spanning tree, so
/// the result is always connected. The standard "connected workload" in our benchmarks.
Graph connected_gnp(NodeId n, double p, Rng& rng);

/// Random d-regular simple graph via the configuration model with
/// restarts. Requires n*d even and d < n.
Graph random_regular(NodeId n, NodeId d, Rng& rng);

/// Lollipop: K_{clique_size} plus a path of path_len nodes hanging off node 0.
Graph lollipop(NodeId clique_size, NodeId path_len);

/// Barbell: two K_{clique_size} cliques joined by a path of bridge_len nodes.
Graph barbell(NodeId clique_size, NodeId bridge_len);

/// Barabási–Albert preferential attachment: starts from a clique on
/// `attach` + 1 nodes; each new node attaches to `attach` distinct existing
/// nodes chosen proportionally to degree. Produces the heavy-tailed degree
/// distributions of real internets/overlays.
Graph barabasi_albert(NodeId n, NodeId attach, Rng& rng);

/// The footnote-3 counterexample of the paper: K_{n-1} plus a single pendant
/// vertex attached to node 0. Push-only gossip needs Omega(n) expected time
/// to reach the pendant even though the graph has constant vertex expansion.
Graph complete_plus_pendant(NodeId n);

}  // namespace rise::graph
