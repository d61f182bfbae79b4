#include "graph/spanner.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace rise::graph {

namespace {

/// Union-find over node ids (path halving).
class Forest {
 public:
  explicit Forest(NodeId n) : parent_(n) {
    for (NodeId u = 0; u < n; ++u) parent_[u] = u;
  }

  /// Joins the components of u and v; false if they were already one.
  bool unite(NodeId u, NodeId v) {
    u = find(u);
    v = find(v);
    parent_[v] = u;
    return u != v;
  }

 private:
  NodeId find(NodeId u) {
    while (parent_[u] != u) {
      parent_[u] = parent_[parent_[u]];
      u = parent_[u];
    }
    return u;
  }

  std::vector<NodeId> parent_;
};

/// Bidirectional depth-bounded BFS answering "dist(s, t) <= limit?". Each
/// step expands the smaller frontier by one whole level, so after a step
/// without contact the two balls of radii r_s and r_t are disjoint and
/// dist(s, t) > r_s + r_t; the search stops when that sum reaches `limit`,
/// a frontier empties, or an edge joins the two balls. The queues and the
/// stamp array are sized once; a search costs no allocation.
class BoundedSearch {
 public:
  explicit BoundedSearch(NodeId n) : mark_(n, 0) {
    for (Side& side : sides_) side.queue.reserve(n);
  }

  /// `rows(u)` yields u's neighbors.
  template <class Rows>
  bool within(const Rows& rows, NodeId s, NodeId t, std::uint32_t limit) {
    if (s == t) return true;
    next_stamps();
    sides_[0].start(s, stamp_ - 1, mark_);
    sides_[1].start(t, stamp_, mark_);
    for (std::uint32_t reach = 0; reach < limit; ++reach) {
      const bool far = sides_[1].frontier() < sides_[0].frontier();
      Side& near = sides_[far ? 1 : 0];
      const std::uint32_t other = sides_[far ? 0 : 1].stamp;
      const std::size_t end = near.queue.size();
      for (std::size_t i = near.begin; i < end; ++i) {
        for (const NodeId w : rows(near.queue[i])) {
          if (mark_[w] == other) return true;
          if (mark_[w] == near.stamp) continue;
          mark_[w] = near.stamp;
          near.queue.push_back(w);
        }
      }
      near.begin = end;
      if (near.frontier() == 0) return false;  // the component is exhausted
    }
    return false;
  }

 private:
  struct Side {
    std::vector<NodeId> queue;  // every node reached, level by level
    std::size_t begin = 0;      // the frontier is queue[begin..]
    std::uint32_t stamp = 0;

    void start(NodeId u, std::uint32_t own, std::vector<std::uint32_t>& mark) {
      queue.clear();
      queue.push_back(u);
      begin = 0;
      stamp = own;
      mark[u] = own;
    }
    std::size_t frontier() const { return queue.size() - begin; }
  };

  /// Each search owns the stamps stamp_ - 1 and stamp_. Marks left by
  /// earlier searches hold smaller stamps, until the counter would wrap:
  /// then every mark is cleared and the count starts over.
  void next_stamps() {
    if (stamp_ > std::numeric_limits<std::uint32_t>::max() - 2) {
      std::fill(mark_.begin(), mark_.end(), 0);
      stamp_ = 0;
    }
    stamp_ += 2;
  }

  std::vector<std::uint32_t> mark_;
  std::uint32_t stamp_ = 0;
  Side sides_[2];
};

/// Path lengths within a component are at most n - 1, so a larger bound
/// answers the same questions. Computed in 64 bits: 2k - 1 overflows 32.
std::uint32_t capped_stretch(std::uint64_t stretch, NodeId n) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(stretch, n == 0 ? 0 : n - 1));
}

}  // namespace

Graph greedy_spanner(const Graph& g, unsigned k) {
  RISE_CHECK(k >= 1);
  if (k == 1) return g;
  const NodeId n = g.num_nodes();
  const std::uint32_t stretch = capped_stretch(2 * std::uint64_t{k} - 1, n);
  // S is a subgraph of g, so S's row u fits in g's CSR slots for u.
  const std::uint64_t* slots = g.offsets_data();
  std::vector<NodeId> adjacency(2 * g.num_edges());
  std::vector<NodeId> degree(n, 0);
  const auto rows = [&](NodeId u) {
    return std::span<const NodeId>(adjacency.data() + slots[u], degree[u]);
  };
  Forest forest(n);
  BoundedSearch search(n);
  std::vector<Edge> kept;
  g.for_each_edge([&](NodeId u, NodeId v) {
    // An edge between two components of S is always kept; within one, a
    // path of at most n - 1 hops already exists once stretch reaches that.
    if (!forest.unite(u, v) &&
        (stretch == n - 1 || search.within(rows, u, v, stretch))) {
      return;
    }
    adjacency[slots[u] + degree[u]++] = v;
    adjacency[slots[v] + degree[v]++] = u;
    kept.push_back({u, v});
  });
  return Graph::from_edges(n, std::move(kept));
}

bool verify_spanner(const Graph& g, const Graph& spanner, unsigned stretch) {
  if (spanner.num_nodes() != g.num_nodes()) return false;
  bool ok = true;
  spanner.for_each_edge([&](NodeId u, NodeId v) {
    if (!g.has_edge(u, v)) ok = false;
  });
  if (!ok) return false;
  // It suffices to check stretch on the edges of g.
  const NodeId n = g.num_nodes();
  const std::uint32_t limit = capped_stretch(stretch, n);
  const auto rows = [&](NodeId u) { return spanner.neighbors(u); };
  BoundedSearch search(n);
  g.for_each_edge([&](NodeId u, NodeId v) {
    if (ok && !search.within(rows, u, v, limit)) ok = false;
  });
  return ok;
}

}  // namespace rise::graph
