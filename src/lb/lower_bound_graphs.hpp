// The paper's lower-bound graph families (Sec. 2).
//
// KT0 family G (Theorem 1): 3n nodes in three groups U, V, W of size n.
//   * V are the "center" nodes, awake initially;
//   * a perfect matching {v_i, w_i} makes each w_i reachable only from v_i;
//   * a complete bipartite graph between U and V gives every center degree
//     n+1, hiding the matching port among n+1 uniformly-permuted ports.
//
// KT1 family G_k (Theorem 2): same matching V–W, but U–V is replaced by the
// n^{1/k}-regular bipartite high-girth graph D(k, q) with n = q^k, so the
// graph has girth >= k+5 and Omega(n^{1+1/k}) edges; node IDs of U and W are
// a random permutation while V's IDs are fixed.
//
// Node layout in both families: V = 0..n-1 (centers), U = n..2n-1,
// W = 2n..3n-1, with w_i = 2n + i matched to v_i = i.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "graph/high_girth.hpp"
#include "sim/adversary.hpp"
#include "sim/instance.hpp"
#include "support/rng.hpp"

namespace rise::lb {

struct LowerBoundFamily {
  graph::Graph graph;
  graph::NodeId n = 0;  ///< group size (total nodes = 3n)

  graph::NodeId center(graph::NodeId i) const { return i; }
  graph::NodeId u_node(graph::NodeId i) const { return n + i; }
  graph::NodeId w_node(graph::NodeId i) const { return 2 * n + i; }

  /// The crucial neighbor w_i of center v_i.
  graph::NodeId crucial_neighbor(graph::NodeId center_index) const {
    return w_node(center_index);
  }

  std::vector<graph::NodeId> centers() const;

  /// The paper's initial configuration: all centers awake at time 0.
  sim::WakeSchedule centers_awake() const;
};

/// True when `g` has the LowerBoundFamily node layout: 3n nodes (n >= 1)
/// with every center v_i adjacent to its crucial neighbor w_i = 2n + i. Both
/// families have it; the beta-probing oracle reads nothing else.
bool has_family_layout(const graph::Graph& g);

/// The KT0 family G with |V| = n.
LowerBoundFamily make_kt0_family(graph::NodeId n);

/// The KT1 family G_k built on D(k, q); n = q^k per group. k odd >= 3,
/// q prime.
struct Kt1Family {
  LowerBoundFamily family;
  unsigned k = 0;
  std::uint64_t q = 0;
  graph::NodeId center_degree = 0;  ///< n^{1/k} + 1
};

Kt1Family make_kt1_family(unsigned k, std::uint64_t q);

/// Instance options for the KT0 experiment (random ports, fixed labels).
sim::Instance make_kt0_instance(const LowerBoundFamily& family, Rng& rng,
                                sim::Bandwidth bandwidth = sim::Bandwidth::CONGEST);

/// Instance options for the KT1 experiment: V gets the fixed IDs 2n+1..3n,
/// U and W get a random permutation of 1..2n (as in Sec. 2.2).
sim::Instance make_kt1_instance(const LowerBoundFamily& family, Rng& rng,
                                sim::Bandwidth bandwidth = sim::Bandwidth::LOCAL);

}  // namespace rise::lb
