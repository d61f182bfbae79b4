#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "support/check.hpp"

namespace rise::graph {

namespace {

Graph from(NodeId n, std::vector<Edge> edges) {
  return Graph::from_edges(n, std::move(edges));
}

/// Visits each unordered pair {u, v}, u < v, independently with probability
/// p, in lexicographic order. Instead of one Bernoulli draw per pair (O(n²)),
/// draws geometric skip lengths — floor(log(1-U)/log(1-p)) pairs between
/// consecutive hits — so the work is O(edges) draws total. The distribution
/// over graphs is exactly G(n, p); only the rng consumption pattern differs
/// from the old coin-flip loop (pinned by the chi-square test in
/// test_graph_generators).
template <class F>
void sample_gnp_pairs(NodeId n, double p, Rng& rng, F&& f) {
  if (n < 2 || p <= 0.0) return;
  if (p >= 1.0) {
    for (NodeId u = 0; u + 1 < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) f(u, v);
    return;
  }
  const double denom = std::log1p(-p);
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t pos = 0;  // linear index of the current candidate pair
  NodeId u = 0;
  std::uint64_t v = 1;  // candidate pair is (u, v)
  // Advances the candidate by k pairs, carrying v across row ends. Safe only
  // while the destination index stays < total (checked by the caller).
  const auto advance = [&](std::uint64_t k) {
    v += k;
    while (v >= n) {
      const std::uint64_t overflow = v - n;
      ++u;
      v = static_cast<std::uint64_t>(u) + 1 + overflow;
    }
  };
  while (true) {
    const double r = rng.uniform_real();
    const double skip_d = std::floor(std::log1p(-r) / denom);
    // A huge skip (r close to 1) can exceed uint64 range; anything past the
    // last pair means "no more edges" regardless.
    if (skip_d >= static_cast<double>(total - pos)) return;
    const std::uint64_t skip = static_cast<std::uint64_t>(skip_d);
    if (skip >= total - pos) return;
    advance(skip);
    pos += skip;
    f(u, static_cast<NodeId>(v));
    ++pos;
    if (pos >= total) return;
    advance(1);
  }
}

}  // namespace

Graph path(NodeId n) {
  RISE_CHECK(n >= 1);
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return from(n, std::move(edges));
}

Graph cycle(NodeId n) {
  RISE_CHECK(n >= 3);
  std::vector<Edge> edges;
  edges.reserve(n);
  for (NodeId i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n});
  return from(n, std::move(edges));
}

Graph star(NodeId n) {
  RISE_CHECK(n >= 2);
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (NodeId i = 1; i < n; ++i) edges.push_back({0, i});
  return from(n, std::move(edges));
}

Graph complete(NodeId n) {
  RISE_CHECK(n >= 1);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  return from(n, std::move(edges));
}

Graph complete_bipartite(NodeId a, NodeId b) {
  RISE_CHECK(a >= 1 && b >= 1);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(a) * b);
  for (NodeId u = 0; u < a; ++u)
    for (NodeId v = 0; v < b; ++v) edges.push_back({u, a + v});
  return from(a + b, std::move(edges));
}

Graph grid(NodeId rows, NodeId cols) {
  RISE_CHECK(rows >= 1 && cols >= 1);
  auto at = [cols](NodeId r, NodeId c) { return r * cols + c; };
  std::vector<Edge> edges;
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({at(r, c), at(r, c + 1)});
      if (r + 1 < rows) edges.push_back({at(r, c), at(r + 1, c)});
    }
  }
  return from(rows * cols, std::move(edges));
}

Graph torus(NodeId rows, NodeId cols) {
  RISE_CHECK(rows >= 3 && cols >= 3);
  // With rows, cols >= 3 the right and down neighbors of a cell are
  // distinct from each other and from every other cell's, so no edge
  // repeats.
  auto at = [cols](NodeId r, NodeId c) { return r * cols + c; };
  std::vector<Edge> edges;
  edges.reserve(2 * static_cast<std::size_t>(rows) * cols);
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      edges.push_back({at(r, c), at(r, (c + 1) % cols)});
      edges.push_back({at(r, c), at((r + 1) % rows, c)});
    }
  }
  return from(rows * cols, std::move(edges));
}

Graph hypercube(unsigned dim) {
  RISE_CHECK(dim >= 1 && dim <= 20);
  const NodeId n = NodeId{1} << dim;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * dim / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (unsigned b = 0; b < dim; ++b) {
      const NodeId v = u ^ (NodeId{1} << b);
      if (u < v) edges.push_back({u, v});
    }
  }
  return from(n, std::move(edges));
}

Graph random_tree(NodeId n, Rng& rng) {
  RISE_CHECK(n >= 1);
  if (n == 1) return from(1, {});
  if (n == 2) return from(2, {{0, 1}});
  // Linear Prüfer decoding: each step joins the smallest leaf to the next
  // code entry. `next` scans upward for the smallest leaf not yet used; a
  // code entry that just became a leaf below `next` is the smallest leaf
  // and is used at once. Edges come out exactly as with a sorted leaf set.
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<NodeId>(rng.uniform(n));
  std::vector<NodeId> deg(n, 1);
  for (NodeId x : prufer) ++deg[x];
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  NodeId next = 0;
  while (deg[next] != 1) ++next;
  NodeId leaf = next;
  for (NodeId x : prufer) {
    edges.push_back({leaf, x});
    if (--deg[x] == 1 && x < next) {
      leaf = x;
    } else {
      do {
        ++next;
      } while (deg[next] != 1);
      leaf = next;
    }
  }
  // The two leaves left are `leaf` and n - 1, which is never used earlier.
  edges.push_back({leaf, n - 1});
  return from(n, std::move(edges));
}

Graph gnp(NodeId n, double p, Rng& rng) {
  RISE_CHECK(n >= 1);
  RISE_CHECK(p >= 0.0 && p <= 1.0);
  // Two passes over the identical draw sequence: a throwaway copy of the rng
  // tallies degrees, then the caller's rng replays the same skips to fill —
  // so the caller's stream advances exactly once and nothing but the CSR is
  // ever allocated.
  CsrBuilder builder(n);
  Rng count_rng = rng;
  sample_gnp_pairs(n, p, count_rng,
                   [&](NodeId u, NodeId v) { builder.count_edge(u, v); });
  builder.begin_fill();
  sample_gnp_pairs(n, p, rng,
                   [&](NodeId u, NodeId v) { builder.fill_edge(u, v); });
  return builder.finish();
}

Graph connected_gnp(NodeId n, double p, Rng& rng) {
  RISE_CHECK(n >= 1);
  RISE_CHECK(p >= 0.0 && p <= 1.0);
  // Random spanning tree backbone, then the G(n, p) overlay minus the pairs
  // the tree already covers. Pairs arrive in lexicographic order, so on
  // entering row u the tree neighbors of u are stamped with u; the pair
  // (u, v) is a tree edge iff v carries u's stamp.
  const Graph tree = random_tree(n, rng);
  std::vector<NodeId> stamp(n, kInvalidNode);
  NodeId row = kInvalidNode;
  const auto off_tree = [&](NodeId u, NodeId v) {
    if (u != row) {
      row = u;
      for (NodeId w : tree.neighbors(u)) stamp[w] = u;
    }
    return stamp[v] != u;
  };
  CsrBuilder builder(n);
  tree.for_each_edge([&](NodeId u, NodeId v) { builder.count_edge(u, v); });
  Rng count_rng = rng;
  sample_gnp_pairs(n, p, count_rng, [&](NodeId u, NodeId v) {
    if (off_tree(u, v)) builder.count_edge(u, v);
  });
  builder.begin_fill();
  tree.for_each_edge([&](NodeId u, NodeId v) { builder.fill_edge(u, v); });
  row = kInvalidNode;
  sample_gnp_pairs(n, p, rng, [&](NodeId u, NodeId v) {
    if (off_tree(u, v)) builder.fill_edge(u, v);
  });
  return builder.finish();
}

Graph random_regular(NodeId n, NodeId d, Rng& rng) {
  RISE_CHECK(d < n);
  RISE_CHECK_MSG((static_cast<std::uint64_t>(n) * d) % 2 == 0,
                 "n*d must be even for a d-regular graph");
  // Configuration model with local pair-repair: a fully-restarting sampler
  // succeeds only with probability ~exp(-(d^2-1)/4), which is hopeless for
  // d >= 5; instead we fix up self-loops and duplicate edges by swapping the
  // offending stub with a uniformly random one and retrying.
  const std::size_t num_pairs = static_cast<std::size_t>(n) * d / 2;
  for (int attempt = 0; attempt < 50; ++attempt) {
    std::vector<NodeId> stubs;
    stubs.reserve(num_pairs * 2);
    for (NodeId u = 0; u < n; ++u)
      for (NodeId i = 0; i < d; ++i) stubs.push_back(u);
    rng.shuffle(stubs);

    auto key = [](NodeId a, NodeId b) {
      if (a > b) std::swap(a, b);
      return (static_cast<std::uint64_t>(a) << 32) | b;
    };
    std::unordered_map<std::uint64_t, int> count;
    count.reserve(num_pairs * 2);
    auto pair_bad = [&](std::size_t i) {
      const NodeId a = stubs[2 * i], b = stubs[2 * i + 1];
      return a == b || count[key(a, b)] > 1;
    };
    for (std::size_t i = 0; i < num_pairs; ++i) {
      if (stubs[2 * i] != stubs[2 * i + 1]) {
        ++count[key(stubs[2 * i], stubs[2 * i + 1])];
      }
    }
    bool ok = true;
    std::uint64_t budget = 200 * num_pairs + 10000;
    for (std::size_t i = 0; i < num_pairs; ++i) {
      while (pair_bad(i)) {
        if (budget-- == 0) {
          ok = false;
          break;
        }
        // Swap this pair's second stub with a random stub elsewhere.
        const std::size_t j = rng.uniform(num_pairs);
        if (j == i) continue;
        auto unbook = [&](std::size_t p) {
          if (stubs[2 * p] != stubs[2 * p + 1]) {
            --count[key(stubs[2 * p], stubs[2 * p + 1])];
          }
        };
        auto book = [&](std::size_t p) {
          if (stubs[2 * p] != stubs[2 * p + 1]) {
            ++count[key(stubs[2 * p], stubs[2 * p + 1])];
          }
        };
        unbook(i);
        unbook(j);
        std::swap(stubs[2 * i + 1], stubs[2 * j + 1]);
        book(i);
        book(j);
        if (pair_bad(j)) {
          // Keep the swap only if it did not break pair j; otherwise undo.
          unbook(i);
          unbook(j);
          std::swap(stubs[2 * i + 1], stubs[2 * j + 1]);
          book(i);
          book(j);
        }
      }
      if (!ok) break;
    }
    if (!ok) continue;
    // Stream the repaired stub pairing straight into CSR form; the stubs
    // array already is the edge list.
    CsrBuilder builder(n);
    for (std::size_t i = 0; i < num_pairs; ++i) {
      builder.count_edge(stubs[2 * i], stubs[2 * i + 1]);
    }
    builder.begin_fill();
    for (std::size_t i = 0; i < num_pairs; ++i) {
      builder.fill_edge(stubs[2 * i], stubs[2 * i + 1]);
    }
    return builder.finish();
  }
  RISE_CHECK_MSG(false, "random_regular failed to converge (n=" << n << " d="
                                                                << d << ")");
  return {};
}

Graph lollipop(NodeId clique_size, NodeId path_len) {
  RISE_CHECK(clique_size >= 2);
  const NodeId n = clique_size + path_len;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < clique_size; ++u)
    for (NodeId v = u + 1; v < clique_size; ++v) edges.push_back({u, v});
  for (NodeId i = 0; i < path_len; ++i) {
    const NodeId prev = (i == 0) ? NodeId{0} : clique_size + i - 1;
    edges.push_back({prev, clique_size + i});
  }
  return from(n, std::move(edges));
}

Graph barbell(NodeId clique_size, NodeId bridge_len) {
  RISE_CHECK(clique_size >= 2);
  const NodeId n = 2 * clique_size + bridge_len;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < clique_size; ++u)
    for (NodeId v = u + 1; v < clique_size; ++v) edges.push_back({u, v});
  const NodeId right = clique_size + bridge_len;
  for (NodeId u = 0; u < clique_size; ++u)
    for (NodeId v = u + 1; v < clique_size; ++v)
      edges.push_back({right + u, right + v});
  NodeId prev = 0;
  for (NodeId i = 0; i < bridge_len; ++i) {
    edges.push_back({prev, clique_size + i});
    prev = clique_size + i;
  }
  edges.push_back({prev, right});
  return from(n, std::move(edges));
}

Graph barabasi_albert(NodeId n, NodeId attach, Rng& rng) {
  RISE_CHECK(attach >= 1 && n > attach);
  // The endpoint multiset realizes preferential attachment: a node appears
  // once per incident edge, so uniform sampling from it is degree-weighted.
  // Consecutive entries (endpoints[2i], endpoints[2i+1]) *are* the edge
  // list, so no separate edge vector is ever materialized.
  std::vector<NodeId> endpoints;
  endpoints.reserve((static_cast<std::size_t>(attach) * (attach + 1) / 2 +
                     static_cast<std::size_t>(n - attach - 1) * attach) *
                    2);
  // Seed clique on attach+1 nodes.
  for (NodeId u = 0; u <= attach; ++u) {
    for (NodeId v = u + 1; v <= attach; ++v) {
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  // Each new node's distinct targets, kept sorted (attach is small).
  std::vector<NodeId> targets;
  targets.reserve(attach);
  for (NodeId u = attach + 1; u < n; ++u) {
    targets.clear();
    while (targets.size() < attach) {
      const NodeId t = endpoints[rng.uniform(endpoints.size())];
      const auto at = std::lower_bound(targets.begin(), targets.end(), t);
      if (at == targets.end() || *at != t) targets.insert(at, t);
    }
    for (NodeId v : targets) {
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  CsrBuilder builder(n);
  for (std::size_t i = 0; i + 1 < endpoints.size(); i += 2) {
    builder.count_edge(endpoints[i], endpoints[i + 1]);
  }
  builder.begin_fill();
  for (std::size_t i = 0; i + 1 < endpoints.size(); i += 2) {
    builder.fill_edge(endpoints[i], endpoints[i + 1]);
  }
  return builder.finish();
}

Graph complete_plus_pendant(NodeId n) {
  RISE_CHECK(n >= 3);
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < n; ++u)
    for (NodeId v = u + 1; v + 1 < n; ++v) edges.push_back({u, v});
  edges.push_back({0, n - 1});  // the pendant vertex
  return from(n, std::move(edges));
}

}  // namespace rise::graph
