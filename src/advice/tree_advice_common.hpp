// Shared helpers for BFS-tree-based advising schemes (Cor. 1, Thm. 5A/5B):
// a BFS tree with the ports of every tree link, and encoding/decoding of
// port sets.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/algorithms.hpp"
#include "sim/instance.hpp"
#include "support/bitio.hpp"
#include "support/check.hpp"

namespace rise::advice {

/// A BFS tree of the instance's graph plus the ports of its links, found by
/// walking each node's adjacency row beside its children (no port search).
struct PortTree {
  graph::BfsTree tree;
  /// parent_port[u]: the port at u leading to its parent (kInvalidPort at
  /// the root).
  std::vector<sim::Port> parent_port;
  /// child_port[i]: the port at its parent leading to tree.child_list[i].
  std::vector<sim::Port> child_port;

  /// Ports at u leading to u's children, in child order.
  std::span<const sim::Port> child_ports(graph::NodeId u) const {
    return {child_port.data() + tree.child_offsets[u],
            tree.children(u).size()};
  }

  /// Writes u's tree ports to `out` (cleared first): the parent's port when
  /// present, then the children's in child order.
  void tree_ports(graph::NodeId u, std::vector<sim::Port>& out) const;
};

/// The BFS tree from `root` with its ports; CheckError unless it spans the
/// graph.
PortTree port_tree(const sim::Instance& instance, graph::NodeId root);

/// Appends the port set in whichever of two encodings is shorter:
///   format bit 0: gamma(count) then fixed-width ports;
///   format bit 1: a degree-long bitmap with tree ports set.
/// The decoder needs only the node's own degree.
void encode_port_set(BitWriter& w, std::span<const sim::Port> ports,
                     std::uint32_t degree);

/// Inverse of encode_port_set: reads the port set from `r` and calls
/// visit(port) for each port in order, without building a container. A
/// list longer than the bits left to hold it is a CheckError, raised before
/// the first visit.
template <class Visit>
void for_each_port(BitReader& r, std::uint32_t degree, Visit&& visit) {
  if (r.read_bit()) {
    for (std::uint32_t p = 0; p < degree; ++p) {
      if (r.read_bit()) visit(static_cast<sim::Port>(p));
    }
    return;
  }
  const unsigned width = std::max(1u, bit_width_for(degree));
  const std::uint64_t count = r.read_gamma();
  RISE_CHECK_MSG(count <= r.remaining() / width,
                 "port list of " << count << " ports overruns the "
                                 << r.remaining() << " advice bits left");
  for (std::uint64_t i = 0; i < count; ++i) {
    visit(static_cast<sim::Port>(r.read_bits(width)));
  }
}

}  // namespace rise::advice
