#include "sim/instance.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"

namespace rise::sim {

Instance Instance::create(graph::Graph g, const InstanceOptions& options,
                          Rng& rng) {
  Instance inst;
  inst.graph_ = std::move(g);
  inst.options_ = options;
  const NodeId n = inst.graph_.num_nodes();
  RISE_CHECK(options.label_range_factor >= 1);

  // Adversarial label assignment: a permutation of a poly(n) range.
  const std::uint64_t range = static_cast<std::uint64_t>(n) *
                              options.label_range_factor;
  inst.label_bits_ = std::max(1u, bit_width_for(range + 1));
  inst.labels_.resize(n);
  if (!options.forced_labels.empty()) {
    RISE_CHECK_MSG(options.forced_labels.size() == n,
                   "forced_labels must have one entry per node");
    for (NodeId u = 0; u < n; ++u) {
      const Label l = options.forced_labels[u];
      RISE_CHECK_MSG(l >= 1 && l <= range, "forced label out of range");
      inst.labels_[u] = l;
    }
    // Random and sequential labels are distinct by construction; forced
    // ones are checked by sorting a copy.
    std::vector<Label> sorted = options.forced_labels;
    std::sort(sorted.begin(), sorted.end());
    RISE_CHECK_MSG(
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "node labels must be distinct");
  } else if (options.random_labels && n > 0) {
    // Sample n distinct values from [1, range] via a partial Fisher-Yates
    // over the first n slots of the range permutation.
    std::vector<std::uint64_t> pool(range);
    std::iota(pool.begin(), pool.end(), std::uint64_t{1});
    for (NodeId i = 0; i < n; ++i) {
      const std::uint64_t j =
          i + rng.uniform(range - i);
      std::swap(pool[i], pool[j]);
      inst.labels_[i] = pool[i];
    }
  } else {
    for (NodeId u = 0; u < n; ++u) inst.labels_[u] = u + 1;
  }
  // Flat directed-edge index first: every per-link table is indexed by
  // edge_base_[u] + p, so the engines' per-send hot path reads flat arrays
  // instead of chasing per-node heap blocks.
  inst.edge_base_.resize(n + 1);
  inst.edge_base_[0] = 0;
  for (NodeId u = 0; u < n; ++u) {
    inst.edge_base_[u + 1] = inst.edge_base_[u] + inst.graph_.degree(u);
  }
  const std::size_t links = inst.edge_base_[n];

  // Adversarial port mappings: each node's run of port_to_slot_ is iota
  // shuffled in place, in node order — the same draws as one
  // rng.permutation(deg) per node, which every seed-pinned test depends on.
  inst.port_to_slot_.resize(links);
  inst.slot_to_port_.resize(links);
  for (NodeId u = 0; u < n; ++u) {
    const std::span<std::uint32_t> ports(
        inst.port_to_slot_.data() + inst.edge_base_[u], inst.graph_.degree(u));
    std::iota(ports.begin(), ports.end(), 0u);
    if (options.random_ports) rng.shuffle(ports);
    Port* slot_to_port = inst.slot_to_port_.data() + inst.edge_base_[u];
    for (Port p = 0; p < ports.size(); ++p) slot_to_port[ports[p]] = p;
  }

  // Reverse ports by one CSR-transpose pass: adjacency rows are sorted, so
  // visiting u = 0, 1, ... meets each v's neighbors in v's slot order, and
  // cursor[v] is the slot of u in v's row.
  inst.reverse_port_.resize(links);
  std::vector<std::uint32_t> cursor(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    const auto nb = inst.graph_.neighbors(u);
    const std::size_t base = inst.edge_base_[u];
    for (std::uint32_t slot = 0; slot < nb.size(); ++slot) {
      const NodeId v = nb[slot];
      inst.reverse_port_[base + inst.slot_to_port_[base + slot]] =
          inst.slot_to_port_[inst.edge_base_[v] + cursor[v]++];
    }
  }

  inst.rebuild_label_views();
  return inst;
}

void Instance::rebuild_label_views() {
  const NodeId n = num_nodes();
  const std::size_t links = edge_base_.empty() ? 0 : edge_base_.back();
  neighbor_labels_.assign(links, 0);
  const bool kt1 = options_.knowledge == Knowledge::KT1;
  label_ports_.assign(kt1 ? links : 0, {});
  for (NodeId u = 0; u < n; ++u) {
    const auto deg = graph_.degree(u);
    const std::size_t base = edge_base_[u];
    const auto nb = graph_.neighbors(u);
    for (Port p = 0; p < deg; ++p) {
      const Label l = labels_[nb[port_to_slot_[base + p]]];
      neighbor_labels_[base + p] = l;
      if (kt1) label_ports_[base + p] = {l, p};
    }
    if (!kt1) continue;
    const auto first = label_ports_.begin() + static_cast<std::ptrdiff_t>(base);
    const auto last = first + deg;
    std::sort(first, last, [](const LabelPort& a, const LabelPort& b) {
      return a.label < b.label;
    });
    const auto dup = std::adjacent_find(
        first, last, [](const LabelPort& a, const LabelPort& b) {
          return a.label == b.label;
        });
    RISE_CHECK_MSG(dup == last, "node " << u << " has two neighbors with label "
                                        << dup->label
                                        << " — labels must be distinct");
  }
}

Instance Instance::with_swapped_labels(NodeId a, NodeId b) const {
  RISE_CHECK(a < num_nodes() && b < num_nodes());
  Instance copy = *this;
  std::swap(copy.labels_[a], copy.labels_[b]);
  copy.rebuild_label_views();
  return copy;
}

Port Instance::port_of_label(NodeId u, Label neighbor) const {
  RISE_CHECK_MSG(options_.knowledge == Knowledge::KT1,
                 "addressing by neighbor ID requires KT1");
  RISE_CHECK(u < num_nodes());
  const auto first =
      label_ports_.begin() + static_cast<std::ptrdiff_t>(edge_base_[u]);
  const auto last =
      label_ports_.begin() + static_cast<std::ptrdiff_t>(edge_base_[u + 1]);
  const auto it = std::lower_bound(
      first, last, neighbor,
      [](const LabelPort& e, Label l) { return e.label < l; });
  RISE_CHECK_MSG(it != last && it->label == neighbor,
                 "node " << label(u) << " has no neighbor with ID "
                         << neighbor);
  return it->port;
}

NodeId Instance::node_of_label(Label l) const {
  const auto it = std::find(labels_.begin(), labels_.end(), l);
  RISE_CHECK_MSG(it != labels_.end(), "unknown label " << l);
  return static_cast<NodeId>(it - labels_.begin());
}

Port Instance::neighbor_to_port(NodeId u, NodeId v) const {
  const auto slot = graph_.neighbor_slot(u, v);
  RISE_CHECK_MSG(slot.has_value(), "nodes " << u << " and " << v
                                            << " are not adjacent");
  return port_of_slot(u, *slot);
}

std::uint64_t Instance::congest_bit_budget() const {
  return static_cast<std::uint64_t>(options_.congest_factor) * label_bits_;
}

void Instance::set_advice(BitArena advice) {
  RISE_CHECK_MSG(advice.size() == num_nodes(),
                 "advice must have one string per node");
  advice_ = std::move(advice);
}

void Instance::set_advice(std::span<const BitString> advice) {
  BitArena arena;
  for (const BitString& bits : advice) {
    for (std::size_t i = 0; i < bits.size(); i += 64) {
      const unsigned width = static_cast<unsigned>(
          std::min<std::size_t>(64, bits.size() - i));
      arena.writer().write_bits(bits.read_bits(i, width), width);
    }
    arena.close();
  }
  set_advice(std::move(arena));
}

BitView Instance::advice(NodeId u) const {
  RISE_CHECK(u < num_nodes());
  if (!has_advice()) return {};
  return advice_[u];
}

Instance::AdviceStats Instance::advice_stats() const {
  AdviceStats stats;
  if (!has_advice()) return stats;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    stats.max_bits = std::max(stats.max_bits, advice_[u].size());
    stats.total_bits += advice_[u].size();
  }
  stats.avg_bits = static_cast<double>(stats.total_bits) /
                   static_cast<double>(num_nodes());
  return stats;
}

}  // namespace rise::sim
