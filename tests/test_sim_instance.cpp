#include "sim/instance.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "app/spec.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace rise::sim {
namespace {

TEST(Instance, LabelsAreDistinctAndInRange) {
  Rng rng(1);
  const auto g = graph::connected_gnp(50, 0.1, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::set<Label> seen;
  for (graph::NodeId u = 0; u < 50; ++u) {
    const Label l = inst.label(u);
    EXPECT_GE(l, 1u);
    EXPECT_LE(l, 4u * 50);
    seen.insert(l);
    EXPECT_EQ(inst.node_of_label(l), u);
  }
  EXPECT_EQ(seen.size(), 50u);
}

TEST(Instance, PortMappingIsBijective) {
  Rng rng(2);
  const auto g = graph::connected_gnp(40, 0.15, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT0);
  for (graph::NodeId u = 0; u < 40; ++u) {
    std::set<graph::NodeId> seen;
    for (Port p = 0; p < g.degree(u); ++p) {
      seen.insert(inst.port_to_neighbor(u, p));
    }
    EXPECT_EQ(seen.size(), g.degree(u));
  }
}

TEST(Instance, PortInverseIsConsistent) {
  Rng rng(3);
  const auto g = graph::connected_gnp(30, 0.2, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT0);
  for (graph::NodeId u = 0; u < 30; ++u) {
    for (Port p = 0; p < g.degree(u); ++p) {
      const graph::NodeId v = inst.port_to_neighbor(u, p);
      EXPECT_EQ(inst.neighbor_to_port(u, v), p);
    }
  }
}

TEST(Instance, NeighborLabelsByPortMatchTopology) {
  Rng rng(4);
  const auto g = graph::grid(5, 5);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto labels = inst.neighbor_labels_by_port(u);
    ASSERT_EQ(labels.size(), g.degree(u));
    for (Port p = 0; p < g.degree(u); ++p) {
      EXPECT_EQ(labels[p], inst.label(inst.port_to_neighbor(u, p)));
    }
  }
}

TEST(Instance, RandomPortsDifferFromIdentity) {
  // With a random permutation on a degree-24 node, identity is vanishingly
  // unlikely.
  Rng rng(5);
  InstanceOptions opt;
  opt.knowledge = Knowledge::KT0;
  opt.random_ports = true;
  const auto g = graph::complete(25);
  const Instance inst = Instance::create(g, opt, rng);
  bool any_shuffled = false;
  for (Port p = 0; p < 24; ++p) {
    if (inst.port_to_neighbor(0, p) != g.neighbors(0)[p]) any_shuffled = true;
  }
  EXPECT_TRUE(any_shuffled);
}

TEST(Instance, ForcedLabelsRespected) {
  Rng rng(6);
  InstanceOptions opt;
  opt.label_range_factor = 2;
  opt.forced_labels = {5, 1, 3};
  const auto g = graph::path(3);
  const Instance inst = Instance::create(g, opt, rng);
  EXPECT_EQ(inst.label(0), 5u);
  EXPECT_EQ(inst.label(1), 1u);
  EXPECT_EQ(inst.label(2), 3u);
}

TEST(Instance, ForcedLabelsRejectDuplicates) {
  Rng rng(7);
  InstanceOptions opt;
  opt.forced_labels = {2, 2, 3};
  EXPECT_THROW(Instance::create(graph::path(3), opt, rng), CheckError);
}

TEST(Instance, SwappedLabelsInstance) {
  Rng rng(8);
  const auto g = graph::cycle(6);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const Instance swapped = inst.with_swapped_labels(1, 4);
  EXPECT_EQ(swapped.label(1), inst.label(4));
  EXPECT_EQ(swapped.label(4), inst.label(1));
  EXPECT_EQ(swapped.label(0), inst.label(0));
  // Neighbor label views are updated consistently.
  for (graph::NodeId u = 0; u < 6; ++u) {
    const auto labels = swapped.neighbor_labels_by_port(u);
    for (Port p = 0; p < g.degree(u); ++p) {
      EXPECT_EQ(labels[p], swapped.label(swapped.port_to_neighbor(u, p)));
    }
  }
}

TEST(Instance, DirectedEdgeIndexCoversEveryPortExactlyOnce) {
  Rng rng(11);
  const auto g = graph::connected_gnp(35, 0.15, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT0);
  std::set<std::size_t> seen;
  for (graph::NodeId u = 0; u < 35; ++u) {
    for (Port p = 0; p < g.degree(u); ++p) {
      const std::size_t id = inst.directed_edge_id(u, p);
      EXPECT_LT(id, inst.num_directed_edges());
      seen.insert(id);
    }
  }
  // Dense and collision-free: every directed edge owns one slot.
  EXPECT_EQ(seen.size(), inst.num_directed_edges());
  EXPECT_EQ(inst.num_directed_edges(), 2u * g.num_edges());
}

TEST(Instance, ReversePortMatchesNeighborToPort) {
  Rng rng(12);
  const auto g = graph::connected_gnp(30, 0.2, rng);
  InstanceOptions opt;
  opt.knowledge = Knowledge::KT0;
  opt.random_ports = true;  // exercise non-identity port permutations
  const Instance inst = Instance::create(g, opt, rng);
  for (graph::NodeId u = 0; u < 30; ++u) {
    for (Port p = 0; p < g.degree(u); ++p) {
      const graph::NodeId v = inst.port_to_neighbor(u, p);
      EXPECT_EQ(inst.reverse_port(u, p), inst.neighbor_to_port(v, u));
      // Round trip: the reverse port at v leads back to u.
      EXPECT_EQ(inst.port_to_neighbor(v, inst.reverse_port(u, p)), u);
    }
  }
}

/// The text of the CheckError f() throws, or "" if it throws none.
template <class F>
std::string check_error_text(F&& f) {
  try {
    f();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Instance, RepeatedForcedLabelRejectedAsNotDistinct) {
  // Two nodes forced to one label (here neighbors 0 and 1 on a path) are
  // refused by the global distinct-labels check, before any KT1
  // label -> port index is built.
  Rng rng(15);
  InstanceOptions opt;
  opt.knowledge = Knowledge::KT1;
  opt.label_range_factor = 4;
  opt.forced_labels = {4, 4, 9};
  EXPECT_NE(check_error_text([&] { Instance::create(graph::path(3), opt, rng); })
                .find("node labels must be distinct"),
            std::string::npos);
}

// The flat label index must invert neighbor_labels_by_port at every port of
// every node, from sparse to complete graphs and on the KT1 lower-bound
// family, before and after a label swap; misses keep their error texts.
TEST(Instance, PortOfLabelInvertsNeighborLabels) {
  for (const char* spec : {"cgnp:200:0.05", "complete:40", "kt1family:3:5"}) {
    Rng rng(21);
    const graph::Graph g = app::parse_graph_spec(spec, rng);
    const Instance inst = test::make_instance(g, Knowledge::KT1);
    const graph::NodeId n = g.num_nodes();
    const Instance swapped = inst.with_swapped_labels(0, n - 1);
    for (const Instance* view : {&inst, &swapped}) {
      for (graph::NodeId u = 0; u < n; ++u) {
        const auto labels = view->neighbor_labels_by_port(u);
        for (Port p = 0; p < g.degree(u); ++p) {
          EXPECT_EQ(view->port_of_label(u, labels[p]), p)
              << spec << " node " << u << " port " << p;
        }
        // The node's own label is never its neighbor's.
        EXPECT_NE(check_error_text([&] {
                    view->port_of_label(u, view->label(u));
                  }).find("has no neighbor with ID"),
                  std::string::npos)
            << spec << " node " << u;
      }
      const Label above = std::uint64_t{1} << view->label_bits();
      EXPECT_NE(check_error_text([&] { view->port_of_label(0, above); })
                    .find("has no neighbor with ID"),
                std::string::npos)
          << spec;
    }
    const Instance kt0 = test::make_instance(g, Knowledge::KT0);
    const Label neighbor = inst.neighbor_labels_by_port(0)[0];
    EXPECT_NE(check_error_text([&] { kt0.port_of_label(0, neighbor); })
                  .find("addressing by neighbor ID requires KT1"),
              std::string::npos)
        << spec;
  }
}

/// Every adversary choice of `inst` as text: labels, and per port the
/// neighbor, the reverse port, the neighbor's label and (KT1) the port
/// port_of_label finds for that label.
std::string adversary_text(const Instance& inst) {
  std::string text;
  for (graph::NodeId u = 0; u < inst.num_nodes(); ++u) {
    text += std::to_string(inst.label(u)) + ':';
    const auto labels = inst.neighbor_labels_by_port(u);
    for (Port p = 0; p < inst.graph().degree(u); ++p) {
      text += std::to_string(inst.port_to_neighbor(u, p)) + '/' +
              std::to_string(inst.reverse_port(u, p)) + '/' +
              std::to_string(labels[p]);
      if (inst.knowledge() == Knowledge::KT1) {
        text += '/' + std::to_string(inst.port_of_label(u, labels[p]));
      }
      text += ',';
    }
    text += '\n';
  }
  return text;
}

// Ports, reverse ports and labels, recorded while Instance::create drew one
// rng.permutation vector per node, found reverse ports by a neighbor_slot
// search per link and kept a hash-map label index: the in-place shuffle and
// the transpose pass must make the same choices from the same draws.
TEST(Instance, MatchesPinnedPortHashes) {
  struct Pin {
    const char* graph;
    Knowledge knowledge;
    bool random_ports;
    bool random_labels;
    bool forced;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"cgnp:300:0.05", Knowledge::KT0, true, true, false,
       17402374251058275732ULL},
      {"cgnp:300:0.05", Knowledge::KT1, true, true, false,
       4585253179086586760ULL},
      {"cgnp:300:0.05", Knowledge::KT1, false, true, false,
       14308520037735367181ULL},
      {"cgnp:300:0.05", Knowledge::KT1, true, false, false,
       14325243293988129781ULL},
      {"cgnp:300:0.05", Knowledge::KT1, true, true, true,
       12731488510891953796ULL},
      {"complete:40", Knowledge::KT0, true, true, false,
       2665268304311210408ULL},
      {"tree:200", Knowledge::KT1, true, true, false,
       15162002955746374022ULL},
      {"kt1family:3:5", Knowledge::KT1, true, true, false,
       1534367161571201091ULL},
      {"torus:6x9", Knowledge::KT0, false, false, true,
       16129997794466595395ULL}};
  for (const Pin& pin : pins) {
    std::string text;
    for (std::uint64_t seed : {1u, 5u}) {
      Rng graph_rng(seed);
      const graph::Graph g = app::parse_graph_spec(pin.graph, graph_rng);
      InstanceOptions opt;
      opt.knowledge = pin.knowledge;
      opt.random_ports = pin.random_ports;
      opt.random_labels = pin.random_labels;
      if (pin.forced) {
        // Labels 3n, 3n - 3, ...: distinct, in range, not in node order.
        for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
          opt.forced_labels.push_back(3 * (g.num_nodes() - u));
        }
      }
      Rng rng(seed * 31 + 7);
      const Instance inst = Instance::create(g, opt, rng);
      text += adversary_text(inst) + '|' + std::to_string(rng()) + '\n';
    }
    EXPECT_EQ(test::fnv1a(text), pin.hash)
        << pin.graph << " kt1=" << (pin.knowledge == Knowledge::KT1)
        << " random_ports=" << pin.random_ports
        << " random_labels=" << pin.random_labels << " forced=" << pin.forced;
  }
}

TEST(Instance, AdviceStats) {
  Rng rng(9);
  const auto g = graph::path(4);
  Instance inst = test::make_instance(g, Knowledge::KT0);
  EXPECT_FALSE(inst.has_advice());
  EXPECT_TRUE(inst.advice(2).empty());
  std::vector<BitString> advice(4);
  advice[0].append_bits(0b101, 3);
  advice[1].append_bits(0b1, 1);
  inst.set_advice(std::move(advice));
  const auto stats = inst.advice_stats();
  EXPECT_EQ(stats.max_bits, 3u);
  EXPECT_EQ(stats.total_bits, 4u);
  EXPECT_DOUBLE_EQ(stats.avg_bits, 1.0);
}

TEST(Instance, CongestBudgetScalesWithLogN) {
  Rng rng(10);
  const Instance small = test::make_instance(graph::path(8), Knowledge::KT0);
  const Instance large = test::make_instance(graph::path(1024), Knowledge::KT0);
  EXPECT_LT(small.congest_bit_budget(), large.congest_bit_budget());
  EXPECT_LE(large.congest_bit_budget(), 8u * 13);  // 8 * ceil(log2(4096+1))
}

}  // namespace
}  // namespace rise::sim
