// Immutable undirected graph in CSR (compressed sparse row) form.
//
// All algorithms, simulators, and generators in this library operate on this
// type. Node identifiers here are dense internal indices 0..n-1; the
// *protocol-visible* IDs (the "idᵤ" of the paper, adversary-chosen from a
// polynomial range) live in sim::Instance, which layers labels and KT0 port
// permutations on top of a Graph.
//
// Storage is a bare 64-bit-safe CSR pair — (n+1) uint64 offsets plus 2m
// uint32 neighbor entries — held behind a shared immutable backing so that
//   * copying a Graph is O(1) (campaign workers share one topology),
//   * the backing can be an owned heap block *or* an mmap-ed graph cache
//     (graph/cache.hpp) without the accessors knowing the difference, and
//   * no separate edge list is retained: at 10^7 edges the old normalized
//     `edges_` vector doubled resident memory for data derivable from the
//     CSR in one pass (edge_list() / for_each_edge() below).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace rise::graph {

using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// An undirected edge between internal node indices.
struct Edge {
  NodeId u;
  NodeId v;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;

  /// Builds a graph over nodes 0..n-1 from an edge list. Self-loops and
  /// duplicate edges are rejected (the paper's networks are simple graphs).
  static Graph from_edges(NodeId num_nodes, std::vector<Edge> edges);

  /// Wraps externally owned CSR arrays (e.g. an mmap-ed graph cache) without
  /// copying. `offsets` must have num_nodes+1 entries, `adjacency` must have
  /// 2*num_edges entries, and `keep_alive` must own whatever storage the
  /// pointers reference for the Graph's lifetime. The content is validated
  /// (CheckError otherwise): monotone offsets, neighbor ids < num_nodes,
  /// strictly increasing rows, no self-loops, symmetric adjacency.
  static Graph from_csr_view(NodeId num_nodes, std::uint64_t num_edges,
                             const std::uint64_t* offsets,
                             const NodeId* adjacency,
                             std::shared_ptr<const void> keep_alive);

  NodeId num_nodes() const { return n_; }
  std::size_t num_edges() const { return static_cast<std::size_t>(m_); }

  /// Neighbors of u in ascending index order. The position of a neighbor in
  /// this span is its *canonical slot*; KT0 port numbers are a permutation of
  /// canonical slots chosen by the adversary (see sim::Instance). Defined
  /// here (with degree) so the engines' per-event lookups inline.
  std::span<const NodeId> neighbors(NodeId u) const {
    RISE_DCHECK(u < num_nodes());
    return {adjacency_ + offsets_[u],
            static_cast<std::size_t>(offsets_[u + 1] - offsets_[u])};
  }

  NodeId degree(NodeId u) const {
    RISE_DCHECK(u < num_nodes());
    return static_cast<NodeId>(offsets_[u + 1] - offsets_[u]);
  }

  bool has_edge(NodeId u, NodeId v) const;

  /// Position of v within neighbors(u), if adjacent.
  std::optional<std::uint32_t> neighbor_slot(NodeId u, NodeId v) const;

  /// Materializes the edge list, normalized to u < v and sorted
  /// lexicographically — the same order the retired `edges_` member kept.
  /// O(m) time and allocation; prefer for_each_edge() on hot paths.
  std::vector<Edge> edge_list() const;

  /// Visits every edge as f(u, v) with u < v in lexicographic order without
  /// materializing anything.
  template <class F>
  void for_each_edge(F&& f) const {
    for (NodeId u = 0; u < n_; ++u) {
      for (const NodeId v : neighbors(u)) {
        if (u < v) f(u, v);
      }
    }
  }

  /// Raw CSR arrays, for serialization (graph/cache.cpp). offsets_data() has
  /// num_nodes()+1 entries; adjacency_data() has 2*num_edges() entries.
  const std::uint64_t* offsets_data() const { return offsets_; }
  const NodeId* adjacency_data() const { return adjacency_; }

  NodeId max_degree() const;
  NodeId min_degree() const;

 private:
  friend class CsrBuilder;

  NodeId n_ = 0;
  std::uint64_t m_ = 0;
  const std::uint64_t* offsets_ = nullptr;  // n+1 entries
  const NodeId* adjacency_ = nullptr;       // 2m entries, sorted per node
  std::shared_ptr<const void> backing_;     // owns whatever the pointers view
};

/// Two-phase streaming CSR assembly: generators tally degrees with
/// count_edge(), call begin_fill() (prefix sums + one exact allocation),
/// replay the same edges through fill_edge(), and finish() sorts each
/// adjacency row and validates simplicity. Peak memory is the final CSR plus
/// one n-entry cursor array — no intermediate std::vector<Edge>.
class CsrBuilder {
 public:
  explicit CsrBuilder(NodeId num_nodes);

  /// Phase 1: tally one endpoint pair. Validates self-loops and range.
  void count_edge(NodeId u, NodeId v);

  /// Prefix-sums the tallies and allocates the adjacency array.
  void begin_fill();

  /// Phase 2: place one endpoint pair. The fill pass must replay exactly the
  /// edges that were counted (any order, any orientation).
  void fill_edge(NodeId u, NodeId v);

  /// Sorts each node's neighbors, rejects duplicate edges, and returns the
  /// finished immutable graph. The builder is spent afterwards.
  Graph finish();

 private:
  struct Storage {
    std::vector<std::uint64_t> offsets;
    std::vector<NodeId> adjacency;
  };

  NodeId n_ = 0;
  std::uint64_t m_ = 0;
  std::shared_ptr<Storage> storage_;
  std::vector<std::uint64_t> cursor_;
  enum class Phase { kCount, kFill, kDone } phase_ = Phase::kCount;
};

}  // namespace rise::graph
