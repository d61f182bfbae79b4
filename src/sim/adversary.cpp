#include "sim/adversary.hpp"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.hpp"
#include "support/check.hpp"

namespace rise::sim {

std::vector<NodeId> WakeSchedule::nodes_at_time_zero() const {
  std::vector<NodeId> out;
  for (const auto& [t, u] : wakes)
    if (t == 0) out.push_back(u);
  return out;
}

std::vector<NodeId> WakeSchedule::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(wakes.size());
  for (const auto& [t, u] : wakes) out.push_back(u);
  return out;
}

Time WakeSchedule::earliest() const {
  Time best = kNever;
  for (const auto& [t, u] : wakes) best = std::min(best, t);
  return best;
}

WakeSchedule wake_all(NodeId n) {
  WakeSchedule s;
  s.wakes.reserve(n);
  for (NodeId u = 0; u < n; ++u) s.wakes.push_back({0, u});
  return s;
}

WakeSchedule wake_single(NodeId node) {
  return WakeSchedule{{{Time{0}, node}}};
}

WakeSchedule wake_set(std::vector<NodeId> nodes) {
  WakeSchedule s;
  s.wakes.reserve(nodes.size());
  for (NodeId u : nodes) s.wakes.push_back({0, u});
  return s;
}

WakeSchedule wake_random_subset(NodeId n, double p, Rng& rng) {
  RISE_CHECK(n >= 1);
  RISE_CHECK(p >= 0.0 && p <= 1.0);
  WakeSchedule s;
  for (NodeId u = 0; u < n; ++u)
    if (rng.chance(p)) s.wakes.push_back({0, u});
  if (s.wakes.empty()) s.wakes.push_back({0, 0});
  return s;
}

WakeSchedule staggered_doubling(NodeId n, Time gap, double growth, Rng& rng) {
  RISE_CHECK(n >= 1);
  RISE_CHECK(growth >= 1.0);
  auto order = rng.permutation(n);
  WakeSchedule s;
  std::size_t next = 0;
  double batch = 1.0;
  Time t = 0;
  // batch is clamped at n: a larger batch never wakes more nodes than
  // remain, and without the clamp a big growth factor (or many iterations)
  // overflows batch to inf, making std::llround undefined.
  const double max_batch = static_cast<double>(order.size());
  while (next < order.size()) {
    const auto count =
        std::min<std::size_t>(order.size() - next,
                              static_cast<std::size_t>(std::llround(batch)));
    for (std::size_t i = 0; i < count; ++i) {
      s.wakes.push_back({t, order[next++]});
    }
    RISE_CHECK_MSG(next == order.size() || gap < kNever - t,
                   "staggered schedule: wake time " << t << " + gap " << gap
                                                    << " overflows");
    t += gap;
    batch = std::min(batch * growth, max_batch);
  }
  return s;
}

WakeSchedule dominating_set_wakeup(const graph::Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<bool> dominated(n, false);
  std::vector<NodeId> set;
  // Greedy max-coverage.
  for (;;) {
    NodeId best = kInvalidNode;
    std::size_t best_gain = 0;
    for (NodeId u = 0; u < n; ++u) {
      std::size_t gain = dominated[u] ? 0 : 1;
      for (NodeId v : g.neighbors(u))
        if (!dominated[v]) ++gain;
      if (gain > best_gain) {
        best_gain = gain;
        best = u;
      }
    }
    if (best == kInvalidNode) break;
    set.push_back(best);
    dominated[best] = true;
    for (NodeId v : g.neighbors(best)) dominated[v] = true;
  }
  return wake_set(std::move(set));
}

std::uint32_t schedule_awake_distance(const graph::Graph& g,
                                      const WakeSchedule& schedule) {
  return graph::awake_distance(g, schedule.all_nodes());
}

}  // namespace rise::sim
