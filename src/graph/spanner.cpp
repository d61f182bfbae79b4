#include "graph/spanner.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace rise::graph {

namespace {

/// A rooted spanning forest of S: the kept edges that joined two trees.
/// Each node holds its tree's id, its parent (a root is its own parent) and
/// its depth; a tree id also indexes the tree's size. Joining two trees
/// re-roots the smaller one at its endpoint and relabels it, so a node is
/// relabelled O(log n) times per spanner.
class RootedForest {
 public:
  explicit RootedForest(NodeId n) : tree_(n), links_(n), size_(n, 1) {
    for (NodeId u = 0; u < n; ++u) {
      tree_[u] = u;
      links_[u] = {u, 0};
    }
  }

  bool same_tree(NodeId u, NodeId v) const { return tree_[u] == tree_[v]; }

  /// For u and v in one tree: true iff their tree path has at most `limit`
  /// edges. Lifts the deeper end to the other's depth, then both ends
  /// together, giving up once the steps taken would pass `limit`.
  bool path_within(NodeId u, NodeId v, std::uint32_t limit) const {
    std::uint32_t du = links_[u].depth;
    std::uint32_t dv = links_[v].depth;
    if (du < dv) {
      std::swap(u, v);
      std::swap(du, dv);
    }
    std::uint32_t steps = du - dv;
    if (steps > limit) return false;
    for (; du > dv; --du) u = links_[u].parent;
    for (; u != v; steps += 2) {
      if (limit - steps < 2) return false;
      u = links_[u].parent;
      v = links_[v].parent;
    }
    return true;
  }

  /// Joins the trees of u and v by the edge {u, v} and returns the number
  /// of nodes relabelled: the smaller tree's size.
  template <class Rows>
  NodeId join(const Rows& rows, NodeId u, NodeId v) {
    if (size_[tree_[u]] > size_[tree_[v]]) std::swap(u, v);
    const NodeId moved = size_[tree_[u]];
    size_[tree_[v]] += moved;
    if (moved == 1) {
      tree_[u] = tree_[v];
      links_[u] = {v, links_[v].depth + 1};
    } else {
      hang(rows, u, v);
    }
    return moved;
  }

 private:
  /// Re-roots u's tree at u by reversing u's path to its root, hangs it
  /// below v and relabels it top-down; `rows(x)` yields x's neighbors in S,
  /// which lie in x's tree. Out of line: few joins move more than one node,
  /// and inlined it slows the per-edge loop.
  template <class Rows>
  [[gnu::noinline]] void hang(const Rows& rows, NodeId u, NodeId v) {
    NodeId above = v;
    for (NodeId x = u;;) {
      const NodeId next = links_[x].parent;
      links_[x].parent = above;
      if (next == x) break;
      above = x;
      x = next;
    }
    const NodeId tree = tree_[v];
    tree_[u] = tree;
    links_[u].depth = links_[v].depth + 1;
    // x's children are the neighbors that name x their parent (S is
    // simple, so x's own parent does not).
    stack_.assign(1, u);
    while (!stack_.empty()) {
      const NodeId x = stack_.back();
      stack_.pop_back();
      for (const NodeId w : rows(x)) {
        if (links_[w].parent != x) continue;
        tree_[w] = tree;
        links_[w].depth = links_[x].depth + 1;
        stack_.push_back(w);
      }
    }
  }

  struct Link {
    NodeId parent;
    std::uint32_t depth;
  };

  std::vector<NodeId> tree_;
  std::vector<Link> links_;
  std::vector<NodeId> size_;   // [tree id]
  std::vector<NodeId> stack_;  // the relabel walk's pending nodes
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

Graph greedy_spanner(const Graph& g, unsigned k, SpannerStats* stats) {
  RISE_CHECK(k >= 1);
  if (stats != nullptr) *stats = {};
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
  RootedForest forest(n);
  BoundedSearch search(n);
  SpannerStats counts;
  std::vector<Edge> kept;
  g.for_each_edge([&](NodeId u, NodeId v) {
    // An edge between two components of S is always kept. Within one, a
    // path of at most n - 1 hops already exists once stretch reaches that,
    // and a short enough forest path is a short enough path in S.
    if (!forest.same_tree(u, v)) {
      counts.relabels += forest.join(rows, u, v);
    } else if (stretch == n - 1) {
      return;
    } else if (forest.path_within(u, v, stretch)) {
      ++counts.walk_drops;
      return;
    } else {
      ++counts.searches;
      if (search.within(rows, u, v, stretch)) return;
    }
    adjacency[slots[u] + degree[u]++] = v;
    adjacency[slots[v] + degree[v]++] = u;
    kept.push_back({u, v});
  });
  if (stats != nullptr) *stats = counts;
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
