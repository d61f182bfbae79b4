#include "lb/lower_bound_graphs.hpp"

#include <numeric>

#include "support/check.hpp"

namespace rise::lb {

sim::WakeSchedule wake_centers(graph::NodeId n) {
  std::vector<graph::NodeId> centers(n);
  std::iota(centers.begin(), centers.end(), 0u);
  return sim::wake_set(std::move(centers));
}

bool has_family_layout(const graph::Graph& g) {
  const graph::NodeId n = g.num_nodes() / 3;
  if (n == 0 || g.num_nodes() % 3 != 0) return false;
  for (graph::NodeId i = 0; i < n; ++i) {
    if (!g.has_edge(i, 2 * n + i)) return false;
  }
  return true;
}

LowerBoundFamily make_kt0_family(graph::NodeId n) {
  RISE_CHECK(n >= 1);
  std::vector<graph::Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * n + n);
  // Complete bipartite U x V.
  for (graph::NodeId i = 0; i < n; ++i) {
    for (graph::NodeId j = 0; j < n; ++j) {
      edges.push_back({i, n + j});
    }
  }
  // Perfect matching V -- W.
  for (graph::NodeId i = 0; i < n; ++i) {
    edges.push_back({i, 2 * n + i});
  }
  LowerBoundFamily fam;
  fam.n = n;
  fam.graph = graph::Graph::from_edges(3 * n, std::move(edges));
  return fam;
}

Kt1Family make_kt1_family(unsigned k, std::uint64_t q) {
  RISE_CHECK_MSG(k >= 3 && k % 2 == 1, "Theorem 2 needs odd k >= 3");
  const graph::BipartiteGraph d = graph::lazebnik_ustimenko_d(k, q);
  const graph::NodeId n = d.left_size;
  // D(k,q): left side (points) becomes V = 0..n-1, right side (lines)
  // becomes U = n..2n-1 — this matches D's own layout, so edges carry over.
  std::vector<graph::Edge> edges = d.graph.edge_list();
  for (graph::NodeId i = 0; i < n; ++i) {
    edges.push_back({i, 2 * n + i});
  }
  Kt1Family fam;
  fam.family.n = n;
  fam.family.graph = graph::Graph::from_edges(3 * n, std::move(edges));
  fam.k = k;
  fam.q = q;
  fam.center_degree = static_cast<graph::NodeId>(q) + 1;
  return fam;
}

sim::Instance make_kt0_instance(const LowerBoundFamily& family, Rng& rng,
                                sim::Bandwidth bandwidth) {
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT0;
  opt.bandwidth = bandwidth;
  opt.random_labels = false;  // Sec. 2: IDs fixed, ports random
  opt.random_ports = true;
  opt.label_range_factor = 1;
  return sim::Instance::create(family.graph, opt, rng);
}

sim::Instance make_kt1_instance(const LowerBoundFamily& family, Rng& rng,
                                sim::Bandwidth bandwidth) {
  const graph::NodeId n = family.n;
  // Sec. 2.2 input distribution: center v_j has the fixed ID 2n+j; the IDs
  // of U and W are a uniform random permutation of [2n].
  std::vector<sim::Label> labels(3 * n);
  auto perm = rng.permutation(2 * n);
  for (graph::NodeId i = 0; i < n; ++i) {
    labels[family.center(i)] = 2 * static_cast<sim::Label>(n) + i + 1;
    labels[family.u_node(i)] = perm[i] + 1;
    labels[family.w_node(i)] = perm[n + i] + 1;
  }
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT1;
  opt.bandwidth = bandwidth;
  opt.label_range_factor = 1;
  opt.forced_labels = std::move(labels);
  opt.random_ports = false;  // KT1: ports are irrelevant
  return sim::Instance::create(family.graph, opt, rng);
}

}  // namespace rise::lb
