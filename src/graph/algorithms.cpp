#include "graph/algorithms.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace rise::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  return multi_source_bfs(g, {source});
}

std::vector<std::uint32_t> multi_source_bfs(
    const Graph& g, const std::vector<NodeId>& sources) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  // Every node enters the queue at most once, so it is one flat array.
  std::vector<NodeId> queue;
  queue.reserve(g.num_nodes());
  for (NodeId s : sources) {
    RISE_CHECK(s < g.num_nodes());
    if (dist[s] == kUnreachable) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::uint32_t awake_distance(const Graph& g,
                             const std::vector<NodeId>& awake) {
  if (awake.empty()) return kUnreachable;
  const auto dist = multi_source_bfs(g, awake);
  std::uint32_t best = 0;
  for (std::uint32_t d : dist) {
    if (d == kUnreachable) return kUnreachable;
    best = std::max(best, d);
  }
  return best;
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t best = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (std::uint32_t d : bfs_distances(g, u)) {
      if (d == kUnreachable) return kUnreachable;
      best = std::max(best, d);
    }
  }
  return best;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::find(dist.begin(), dist.end(), kUnreachable) == dist.end();
}

std::vector<std::uint32_t> connected_components(const Graph& g) {
  std::vector<std::uint32_t> comp(g.num_nodes(), kUnreachable);
  std::uint32_t next = 0;
  // Each node is queued once over all components: one flat array.
  std::vector<NodeId> queue;
  queue.reserve(g.num_nodes());
  std::size_t head = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (comp[s] != kUnreachable) continue;
    comp[s] = next;
    queue.push_back(s);
    while (head < queue.size()) {
      const NodeId u = queue[head++];
      for (NodeId v : g.neighbors(u)) {
        if (comp[v] == kUnreachable) {
          comp[v] = next;
          queue.push_back(v);
        }
      }
    }
    ++next;
  }
  return comp;
}

std::uint32_t girth(const Graph& g) {
  // BFS from every node; a non-tree edge closing at depths (d(u), d(v)) from
  // root r witnesses a cycle of length d(u)+d(v)+1. Taking the minimum over
  // all roots yields the exact girth for unweighted graphs.
  std::uint32_t best = kUnreachable;
  const NodeId n = g.num_nodes();
  std::vector<std::uint32_t> dist(n);
  std::vector<NodeId> parent(n);
  std::vector<NodeId> queue;
  queue.reserve(n);
  for (NodeId r = 0; r < n; ++r) {
    std::fill(dist.begin(), dist.end(), kUnreachable);
    std::fill(parent.begin(), parent.end(), kInvalidNode);
    dist[r] = 0;
    queue.assign(1, r);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      if (best != kUnreachable && 2 * dist[u] >= best) continue;
      for (NodeId v : g.neighbors(u)) {
        if (v == parent[u]) continue;
        if (dist[v] == kUnreachable) {
          dist[v] = dist[u] + 1;
          parent[v] = u;
          queue.push_back(v);
        } else {
          // Found a cycle through r (or at least a closed walk bounding it).
          best = std::min(best, dist[u] + dist[v] + 1);
        }
      }
    }
  }
  return best;
}

BfsTree bfs_tree(const Graph& g, NodeId root) {
  const NodeId n = g.num_nodes();
  RISE_CHECK(root < n);
  BfsTree tree;
  tree.root = root;
  tree.parent.assign(n, kInvalidNode);
  tree.depth.assign(n, kUnreachable);
  tree.depth[root] = 0;
  std::vector<NodeId> queue;
  queue.reserve(n);
  queue.push_back(root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (NodeId v : g.neighbors(u)) {
      if (tree.depth[v] == kUnreachable) {
        tree.depth[v] = tree.depth[u] + 1;
        tree.parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  // Children CSR by counting sort on the parent: child_offsets[u] first
  // holds the end of u's run, and placing v = n-1, ..., 0 at --end moves it
  // to the run's start while leaving every run in ascending node order.
  tree.child_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (tree.parent[v] != kInvalidNode) ++tree.child_offsets[tree.parent[v]];
  }
  NodeId end = 0;
  for (NodeId u = 0; u <= n; ++u) {
    end += tree.child_offsets[u];
    tree.child_offsets[u] = end;
  }
  tree.child_list.resize(end);
  for (NodeId v = n; v-- > 0;) {
    if (tree.parent[v] != kInvalidNode) {
      tree.child_list[--tree.child_offsets[tree.parent[v]]] = v;
    }
  }
  return tree;
}

std::size_t tree_degree_sum(const BfsTree& tree) {
  std::size_t sum = 0;
  for (std::size_t u = 0; u < tree.parent.size(); ++u) {
    sum += tree.children(static_cast<NodeId>(u)).size();
    if (tree.parent[u] != kInvalidNode) ++sum;
  }
  return sum;
}

}  // namespace rise::graph
