#include "graph/graph.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace rise::graph {

Graph Graph::from_edges(NodeId num_nodes, std::vector<Edge> edges) {
  CsrBuilder builder(num_nodes);
  for (const Edge& e : edges) builder.count_edge(e.u, e.v);
  builder.begin_fill();
  for (const Edge& e : edges) builder.fill_edge(e.u, e.v);
  return builder.finish();
}

Graph Graph::from_csr_view(NodeId num_nodes, std::uint64_t num_edges,
                           const std::uint64_t* offsets, const NodeId* adjacency,
                           std::shared_ptr<const void> keep_alive) {
  RISE_CHECK(offsets != nullptr);
  RISE_CHECK_MSG(offsets[0] == 0 && offsets[num_nodes] == 2 * num_edges,
                 "CSR view offsets inconsistent with edge count");
  // The arrays come from a file, so everything the accessors rely on is
  // checked before they can read out of bounds: monotone offsets keep every
  // row inside the adjacency array, and has_edge / neighbor_slot binary
  // search rows that must be strictly increasing.
  for (NodeId u = 0; u < num_nodes; ++u) {
    RISE_CHECK_MSG(offsets[u] <= offsets[u + 1],
                   "CSR view offsets decrease at node " << u);
  }
  Graph g;
  g.n_ = num_nodes;
  g.m_ = num_edges;
  g.offsets_ = offsets;
  g.adjacency_ = adjacency;
  g.backing_ = std::move(keep_alive);
  for (NodeId u = 0; u < num_nodes; ++u) {
    const auto nb = g.neighbors(u);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      RISE_CHECK_MSG(nb[i] < num_nodes, "CSR view: node " << u
                                            << " has neighbor " << nb[i]
                                            << " out of range");
      RISE_CHECK_MSG(nb[i] != u, "CSR view: self-loop at node " << u);
      RISE_CHECK_MSG(i == 0 || nb[i - 1] < nb[i],
                     "CSR view: neighbors of node "
                         << u << " are not strictly increasing");
    }
  }
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (const NodeId v : g.neighbors(u)) {
      RISE_CHECK_MSG(g.has_edge(v, u), "CSR view: edge " << u << "-" << v
                                           << " is missing its reverse");
    }
  }
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::optional<std::uint32_t> Graph::neighbor_slot(NodeId u, NodeId v) const {
  const auto nb = neighbors(u);
  const auto it = std::lower_bound(nb.begin(), nb.end(), v);
  if (it == nb.end() || *it != v) return std::nullopt;
  return static_cast<std::uint32_t>(it - nb.begin());
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m_));
  for_each_edge([&edges](NodeId u, NodeId v) { edges.push_back({u, v}); });
  return edges;
}

NodeId Graph::max_degree() const {
  NodeId best = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) best = std::max(best, degree(u));
  return best;
}

NodeId Graph::min_degree() const {
  if (num_nodes() == 0) return 0;
  NodeId best = degree(0);
  for (NodeId u = 1; u < num_nodes(); ++u) best = std::min(best, degree(u));
  return best;
}

CsrBuilder::CsrBuilder(NodeId num_nodes)
    : n_(num_nodes), storage_(std::make_shared<Storage>()) {
  storage_->offsets.assign(static_cast<std::size_t>(n_) + 1, 0);
}

void CsrBuilder::count_edge(NodeId u, NodeId v) {
  RISE_DCHECK(phase_ == Phase::kCount);
  RISE_CHECK_MSG(u != v, "self-loop at node " << u);
  RISE_CHECK_MSG(u < n_ && v < n_, "edge endpoint out of range: {"
                                       << u << "," << v << "} n=" << n_);
  ++storage_->offsets[static_cast<std::size_t>(u) + 1];
  ++storage_->offsets[static_cast<std::size_t>(v) + 1];
  ++m_;
}

void CsrBuilder::begin_fill() {
  RISE_DCHECK(phase_ == Phase::kCount);
  phase_ = Phase::kFill;
  auto& offsets = storage_->offsets;
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  storage_->adjacency.resize(static_cast<std::size_t>(m_) * 2);
  cursor_.assign(offsets.begin(), offsets.end() - 1);
}

void CsrBuilder::fill_edge(NodeId u, NodeId v) {
  RISE_DCHECK(phase_ == Phase::kFill);
  RISE_DCHECK(u < n_ && v < n_ && u != v);
  auto& adjacency = storage_->adjacency;
  adjacency[static_cast<std::size_t>(cursor_[u]++)] = v;
  adjacency[static_cast<std::size_t>(cursor_[v]++)] = u;
}

Graph CsrBuilder::finish() {
  RISE_DCHECK(phase_ == Phase::kFill);
  phase_ = Phase::kDone;
  const auto& offsets = storage_->offsets;
  for (NodeId u = 0; u < n_; ++u) {
    RISE_CHECK_MSG(cursor_[u] == offsets[u + 1],
                   "fill pass replayed a different edge multiset than the "
                   "count pass (node " << u << ")");
  }
  auto& adjacency = storage_->adjacency;
  for (NodeId u = 0; u < n_; ++u) {
    const auto first = adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
    const auto last =
        adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
    std::sort(first, last);
    RISE_CHECK_MSG(std::adjacent_find(first, last) == last,
                   "duplicate edge in edge list");
  }
  cursor_.clear();
  cursor_.shrink_to_fit();
  Graph g;
  g.n_ = n_;
  g.m_ = m_;
  g.offsets_ = storage_->offsets.data();
  g.adjacency_ = storage_->adjacency.data();
  g.backing_ = std::move(storage_);
  return g;
}

}  // namespace rise::graph
