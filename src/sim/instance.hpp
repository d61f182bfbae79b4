// A concrete problem instance: graph topology + adversary-chosen node IDs
// ("labels") + adversary-chosen KT0 port mappings + model flags + optional
// per-node advice.
//
// The paper's adversary "determines the network topology, the node IDs, and
// [under KT0] each individual node's port mapping" (Sec. 1.1); this class is
// exactly that choice, fixed before the execution starts.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/types.hpp"
#include "support/bitio.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rise::sim {

struct InstanceOptions {
  Knowledge knowledge = Knowledge::KT1;
  Bandwidth bandwidth = Bandwidth::LOCAL;

  /// Labels are a permutation of {1, ..., label_range_factor * n}; must be
  /// >= 1. With random_labels = false, node u simply gets label u + 1.
  std::uint32_t label_range_factor = 4;
  bool random_labels = true;

  /// With random_ports = true (the KT0 adversary's prerogative) each node's
  /// port->link mapping is an independent uniform permutation; otherwise
  /// port i is the i-th neighbor in ascending node order.
  bool random_ports = true;

  /// CONGEST budget multiplier: messages may carry at most
  /// congest_factor * ceil(log2(label_range)) bits.
  std::uint32_t congest_factor = 8;

  /// When non-empty, these exact labels are used (size must equal n; values
  /// must be distinct and in [1, label_range_factor * n]). Used by the
  /// lower-bound swap experiments, which need fine control over IDs.
  std::vector<Label> forced_labels;
};

class Instance {
 public:
  /// rng drives the adversary's label and port choices.
  static Instance create(graph::Graph g, const InstanceOptions& options,
                         Rng& rng);

  const graph::Graph& graph() const { return graph_; }
  Knowledge knowledge() const { return options_.knowledge; }
  Bandwidth bandwidth() const { return options_.bandwidth; }
  NodeId num_nodes() const { return graph_.num_nodes(); }

  Label label(NodeId u) const { return labels_[u]; }
  /// The node carrying label l, by a scan over all labels (O(n); the
  /// engines address by port or by port_of_label, never through this).
  NodeId node_of_label(Label l) const;

  /// The neighbor reached through port p of node u. On the engines' per-send
  /// hot path, so defined inline over the flat port permutation.
  NodeId port_to_neighbor(NodeId u, Port p) const {
    RISE_DCHECK(u < num_nodes() && p < graph_.degree(u));
    return graph_.neighbors(u)[port_to_slot_[edge_base_[u] + p]];
  }

  /// port^{-1}_u(v): the port at u whose link leads to neighbor v, by
  /// binary search in u's adjacency row.
  Port neighbor_to_port(NodeId u, NodeId v) const;

  /// The port at u whose link leads to graph().neighbors(u)[slot]: the
  /// search-free form of neighbor_to_port for code that walks u's row.
  Port port_of_slot(NodeId u, std::uint32_t slot) const {
    RISE_DCHECK(u < num_nodes() && slot < graph_.degree(u));
    return slot_to_port_[edge_base_[u] + slot];
  }

  /// Neighbor labels of u indexed by *port* (KT1 initial knowledge).
  std::span<const Label> neighbor_labels_by_port(NodeId u) const {
    RISE_DCHECK(u < num_nodes());
    return {neighbor_labels_.data() + edge_base_[u],
            static_cast<std::size_t>(graph_.degree(u))};
  }

  /// Dense directed-edge numbering derived from the CSR graph: the pair
  /// (u, p) with p < deg(u) has index edge_base(u) + p. The engines key
  /// flat per-channel state (FIFO clamp, message counters) by this.
  std::size_t directed_edge_id(NodeId u, Port p) const {
    return edge_base_[u] + p;
  }
  std::size_t num_directed_edges() const { return edge_base_.back(); }

  /// O(1) inverse of the link (u, p): the port at the far endpoint whose
  /// link leads back to u. Precomputed; equals
  /// neighbor_to_port(port_to_neighbor(u, p), u).
  Port reverse_port(NodeId u, Port p) const {
    return reverse_port_[edge_base_[u] + p];
  }

  /// KT1 addressing: the port of u leading to the neighbor with this label,
  /// by binary search in O(log degree). Throws under KT0 and for labels
  /// that are not neighbors of u.
  Port port_of_label(NodeId u, Label neighbor) const;

  /// Maximum message size in bits permitted under CONGEST.
  std::uint64_t congest_bit_budget() const;

  /// Bits sufficient to encode any label (the "O(log n)" unit).
  unsigned label_bits() const { return label_bits_; }

  /// A copy of this instance with the labels of nodes a and b exchanged and
  /// every other adversary choice (ports, options) identical — the
  /// configuration swap at the heart of the Theorem-2 lower bound.
  Instance with_swapped_labels(NodeId a, NodeId b) const;

  /// Installs one advice string per node, packed in an arena (string u is
  /// node u's advice).
  void set_advice(BitArena advice);
  /// Packs hand-made per-node strings into the arena.
  void set_advice(std::span<const BitString> advice);
  bool has_advice() const { return advice_.size() != 0; }
  /// Node u's advice (empty when the instance has none).
  BitView advice(NodeId u) const;

  /// Advice length statistics (Table 1's "Advice" column).
  struct AdviceStats {
    std::size_t max_bits = 0;
    std::size_t total_bits = 0;
    double avg_bits = 0.0;
  };
  AdviceStats advice_stats() const;

 private:
  /// Recomputes the label-derived views (neighbor_labels_, label_ports_)
  /// from labels_ + port permutations; rejects duplicate neighbor labels.
  void rebuild_label_views();

  graph::Graph graph_;
  InstanceOptions options_;
  std::vector<Label> labels_;
  // Flat directed-edge index (edge_base_ has n+1 prefix-degree entries);
  // every per-link table below is one flat array indexed by
  // edge_base_[u] + p (or + slot), not a vector-of-vectors — at 10^6 nodes
  // the nested form costs a million separate heap blocks and a second
  // pointer chase on every per-send lookup.
  std::vector<std::size_t> edge_base_;
  // Port -> adjacency slot permutation and its inverse, per node.
  std::vector<std::uint32_t> port_to_slot_;
  std::vector<Port> slot_to_port_;
  std::vector<Label> neighbor_labels_;  // by port
  // Precomputed reverse ports, one per directed edge.
  std::vector<Port> reverse_port_;
  // KT1 only: each node's (neighbor label, port) pairs sorted by label, in
  // one flat array laid out like the CSR (node u's run starts at
  // edge_base_[u]), so port_of_label is a binary search over u's run.
  struct LabelPort {
    Label label;
    Port port;
  };
  std::vector<LabelPort> label_ports_;
  unsigned label_bits_ = 0;
  // Every node's advice in one word array; node u starts on a word
  // boundary (BitArena).
  BitArena advice_;
};

}  // namespace rise::sim
