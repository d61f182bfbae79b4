// Wake-on-LAN in a data center (the paper's motivating scenario, Sec. 1).
//
// A leaf-spine fabric: spine switches connect to every leaf switch, each
// leaf switch serves a rack of servers. Racks sleep to save power; an
// operations controller wakes a few machines, and the fabric must wake the
// rest. Every wake-up message is a "magic packet" with an energy cost, so we
// compare the message bill of:
//   * naive flooding (Theta(m) packets),
//   * Theorem 3's ranked DFS (O(n log n) packets, no oracle), and
//   * Theorem 5(B)'s child-encoding advice (O(n) packets, O(log n)-bit
//     config per NIC, precomputed by the controller who knows the fabric).
#include <cstdio>
#include <vector>

#include "advice/child_encoding.hpp"
#include "algo/flooding.hpp"
#include "algo/ranked_dfs.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rise;

/// spines x leaves x servers-per-leaf leaf-spine fabric.
graph::Graph leaf_spine(graph::NodeId spines, graph::NodeId leaves,
                        graph::NodeId servers_per_leaf) {
  std::vector<graph::Edge> edges;
  const graph::NodeId leaf0 = spines;
  const graph::NodeId server0 = spines + leaves;
  for (graph::NodeId s = 0; s < spines; ++s) {
    for (graph::NodeId l = 0; l < leaves; ++l) {
      edges.push_back({s, leaf0 + l});
    }
  }
  for (graph::NodeId l = 0; l < leaves; ++l) {
    for (graph::NodeId i = 0; i < servers_per_leaf; ++i) {
      edges.push_back({leaf0 + l, server0 + l * servers_per_leaf + i});
    }
  }
  return graph::Graph::from_edges(server0 + leaves * servers_per_leaf,
                                  std::move(edges));
}

}  // namespace

int main() {
  const graph::NodeId spines = 8, leaves = 32, per_leaf = 40;
  const auto g = leaf_spine(spines, leaves, per_leaf);
  std::printf(
      "leaf-spine fabric: %u spines, %u leaves, %u servers (%u nodes, %zu "
      "links), diameter %u\n\n",
      spines, leaves, leaves * per_leaf, g.num_nodes(), g.num_edges(),
      graph::diameter(g));

  // The controller wakes one spine and two arbitrary servers.
  const sim::WakeSchedule schedule =
      sim::wake_set({0, spines + leaves + 5, spines + leaves + 700});
  const auto delays = sim::random_delay(/*tau=*/3, /*seed=*/11);

  std::printf("%-28s %12s %12s %16s %10s %14s\n", "strategy", "packets",
              "time-units", "awake node-ticks", "awake?", "advice(max b)");

  auto report = [&](const char* name, const sim::Instance& inst,
                    const sim::KernelRunner& kernel,
                    std::size_t advice_max) {
    const auto result = sim::run_async(inst, *delays, schedule, 4, kernel);
    std::printf("%-28s %12llu %12.1f %16llu %10s %14zu\n", name,
                static_cast<unsigned long long>(result.metrics.messages),
                result.metrics.time_units(),
                static_cast<unsigned long long>(result.awake_node_ticks()),
                result.all_awake() ? "yes" : "NO", advice_max);
  };

  {
    Rng rng(1);
    sim::InstanceOptions opt;
    opt.knowledge = sim::Knowledge::KT0;
    opt.bandwidth = sim::Bandwidth::CONGEST;
    const auto inst = sim::Instance::create(g, opt, rng);
    report("flooding (no config)", inst, algo::flooding_kernel(), 0);
  }
  {
    Rng rng(2);
    sim::InstanceOptions opt;
    opt.knowledge = sim::Knowledge::KT1;  // IP fabric: neighbors known
    const auto inst = sim::Instance::create(g, opt, rng);
    report("ranked DFS (Thm 3)", inst, algo::ranked_dfs_kernel(), 0);
  }
  {
    Rng rng(3);
    sim::InstanceOptions opt;
    opt.knowledge = sim::Knowledge::KT0;
    opt.bandwidth = sim::Bandwidth::CONGEST;
    auto inst = sim::Instance::create(g, opt, rng);
    const auto stats =
        advice::apply_oracle(inst, *advice::child_encoding_oracle());
    report("child-encoding advice (5B)", inst,
           advice::child_encoding_kernel(), stats.max_bits);
  }

  std::printf(
      "\ntakeaway: the advice scheme pays ~2 packets per machine and wakes "
      "the fabric in a handful of delay units; flooding pays per *link* (2m "
      "packets), so its bill grows with every redundant path added to the "
      "fabric, while the DFS token is message-frugal but serializes the "
      "whole wake-up (Theorem 2's time/message trade-off in the wild).\n");
  return 0;
}
