// Classic graph algorithms needed by the paper's constructions and metrics:
// BFS distances, the awake distance rho_awk (Eq. 1 of the paper), diameter,
// connectivity, girth, and BFS/spanning trees (substrate of the advising
// schemes of Section 4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace rise::graph {

inline constexpr std::uint32_t kUnreachable = static_cast<std::uint32_t>(-1);

/// Hop distances from `source` (kUnreachable where disconnected).
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source);

/// Hop distances from the nearest node of `sources`.
std::vector<std::uint32_t> multi_source_bfs(const Graph& g,
                                            const std::vector<NodeId>& sources);

/// The awake distance rho_awk(G, A0) = max_u dist(A0, u) (Eq. 1). Returns
/// kUnreachable if some node is unreachable from A0 or A0 is empty.
std::uint32_t awake_distance(const Graph& g, const std::vector<NodeId>& awake);

/// Exact diameter via BFS from every node (kUnreachable if disconnected).
std::uint32_t diameter(const Graph& g);

bool is_connected(const Graph& g);

/// Connected component id per node (0-based, in discovery order).
std::vector<std::uint32_t> connected_components(const Graph& g);

/// Exact girth (length of shortest cycle); kUnreachable for forests.
std::uint32_t girth(const Graph& g);

/// BFS tree rooted at `root`: parent[u] (kInvalidNode for the root and for
/// unreachable nodes), depth[u] (kUnreachable for unreachable nodes) and
/// every node's children in one CSR.
struct BfsTree {
  NodeId root = kInvalidNode;
  std::vector<NodeId> parent;
  std::vector<std::uint32_t> depth;
  /// Node u's children are child_list[child_offsets[u], child_offsets[u+1]).
  std::vector<NodeId> child_offsets;
  std::vector<NodeId> child_list;

  /// Children of u, in ascending node order.
  std::span<const NodeId> children(NodeId u) const {
    return {child_list.data() + child_offsets[u],
            child_offsets[u + 1] - child_offsets[u]};
  }

  /// Whether the tree spans every node of the graph.
  bool spanning() const { return child_list.size() + 1 == parent.size(); }
};

BfsTree bfs_tree(const Graph& g, NodeId root);

/// Sum over nodes of the tree-degree (i.e. 2*(n-1) for a connected graph);
/// handy for advice accounting tests.
std::size_t tree_degree_sum(const BfsTree& tree);

}  // namespace rise::graph
