// Adversarial wake-up schedules.
//
// The adversary decides which nodes to wake and when (Sec. 1.1). A schedule
// is fixed before the execution (the adversary is oblivious to node state and
// randomness). Besides generic builders, this header provides the canned
// strategies used by the paper's analyses:
//
//  * staggered_doubling — the Theorem-3 stress adversary: wake disjoint node
//    sets S_0, S_1, ... at spaced times, trying to repeatedly dethrone the
//    current maximum-rank DFS token (Sec. 3.1.1).
//  * dominating_set_wakeup — the rho_awk = 1 regime of Theorem 4's intuition,
//    where the initially awake nodes dominate the graph.
#pragma once

#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace rise::sim {

struct WakeSchedule {
  /// (time, node) pairs; times may repeat, nodes must be distinct.
  std::vector<std::pair<Time, NodeId>> wakes;

  std::vector<NodeId> nodes_at_time_zero() const;
  std::vector<NodeId> all_nodes() const;
  Time earliest() const;
};

/// Wake every node at time 0 (the fully-awake classic setting).
WakeSchedule wake_all(NodeId n);

/// Wake exactly one node at time 0.
WakeSchedule wake_single(NodeId node);

/// Wake the given nodes at time 0.
WakeSchedule wake_set(std::vector<NodeId> nodes);

/// Wake each node independently with probability p in [0, 1] at time 0;
/// guarantees at least one wake (node 0 is woken if the coin flips all fail).
WakeSchedule wake_random_subset(NodeId n, double p, Rng& rng);

/// Theorem-3 stress schedule: wake 1 node at time 0, then batches that grow
/// by `growth` (e.g. 2.0) every `gap` ticks, using a random node order.
/// Throws if a wake time would pass the 64-bit time range.
WakeSchedule staggered_doubling(NodeId n, Time gap, double growth, Rng& rng);

/// Greedy dominating set of g, woken at time 0 (gives rho_awk <= 1).
WakeSchedule dominating_set_wakeup(const graph::Graph& g);

/// The rho_awk of a schedule's time-zero... of *all* scheduled nodes,
/// treating them as the awake set A_0 (Eq. 1).
std::uint32_t schedule_awake_distance(const graph::Graph& g,
                                      const WakeSchedule& schedule);

}  // namespace rise::sim
