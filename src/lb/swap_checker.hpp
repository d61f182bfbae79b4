// Executable form of the Theorem-2 indistinguishability argument
// (Lemmas 5 and 6).
//
// The proof's engine: fix a partial ID assignment and compare executions on
// two configurations G[rho] and G[rho'] that differ only by swapping the IDs
// of the crucial neighbor w* and a *non-communicating* neighbor u of a
// center v*. Lemma 6 says u (same ID, same neighborhood view, high girth,
// time restriction) behaves identically in both runs; Lemma 5 says a correct
// time-restricted algorithm must therefore send a message over {u, v*} in
// G[rho'].
//
// run_and_trace executes any algorithm while recording, per undirected edge,
// whether a message crossed it; swapped_instance builds G[rho'] from
// G[rho]. Property tests use the two to verify the lemmas' predictions on
// concrete deterministic strategies.
#pragma once

#include <set>
#include <utility>

#include "sim/kernel.hpp"

namespace rise::lb {

struct TraceResult {
  sim::RunResult run;
  /// Undirected edges (min, max internal node ids) that carried >= 1 message.
  std::set<std::pair<graph::NodeId, graph::NodeId>> used_edges;

  bool edge_used(graph::NodeId a, graph::NodeId b) const {
    return used_edges.count(a < b ? std::make_pair(a, b)
                                  : std::make_pair(b, a)) != 0;
  }
};

/// Runs the kernel under the synchronous engine, recording edge usage.
TraceResult run_and_trace_sync(const sim::Instance& instance,
                               const sim::WakeSchedule& schedule,
                               std::uint64_t seed,
                               const sim::KernelRunner& kernel);

/// A copy of `instance` with the labels of nodes a and b swapped (all other
/// adversary choices identical) — the configuration swap of Lemma 5.
sim::Instance swapped_instance(const sim::Instance& instance,
                               graph::NodeId a, graph::NodeId b);

}  // namespace rise::lb
