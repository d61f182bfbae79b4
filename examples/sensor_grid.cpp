// A sleeping sensor field (synchronous radio rounds).
//
// A torus of sensors dozes; events wake a handful of sensors at different
// times and places, and the field must self-activate quickly — but radio
// messages cost battery. This exercises Theorem 4's FastWakeUp: wake-up
// within 10 * rho_awk rounds while sending far fewer messages than flooding
// when many sensors fire at once.
#include <cstdio>

#include "algo/fast_wakeup.hpp"
#include "algo/flooding.hpp"
#include "graph/generators.hpp"
#include "sim/kernel.hpp"

int main() {
  using namespace rise;

  const graph::NodeId rows = 40, cols = 40;
  const auto g = graph::torus(rows, cols);
  std::printf("sensor torus %ux%u (%u sensors, %zu radio links)\n\n", rows,
              cols, g.num_nodes(), g.num_edges());

  Rng rng(5);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT1;
  const auto inst = sim::Instance::create(g, opt, rng);

  struct Scenario {
    const char* name;
    sim::WakeSchedule schedule;
  };
  Rng srng(9);
  std::vector<Scenario> scenarios;
  scenarios.push_back({"single corner event", sim::wake_single(0)});
  scenarios.push_back(
      {"two distant events", sim::wake_set({0, (rows / 2) * cols + cols / 2})});
  scenarios.push_back({"dense trigger (10% of field)",
                       sim::wake_random_subset(g.num_nodes(), 0.1, srng)});
  {
    // A rolling storm: staggered batches, but only a tenth of the field is
    // ever triggered by the adversary — the rest must be woken by radio.
    auto storm = sim::staggered_doubling(g.num_nodes(), 7, 2.0, srng);
    std::erase_if(storm.wakes,
                  [&](const auto& w) { return w.second >= g.num_nodes() / 10; });
    scenarios.push_back({"rolling storm (staggered)", std::move(storm)});
  }

  std::printf("%-30s %8s %10s | %10s %10s | %10s %10s\n", "scenario",
              "rho_awk", "10*rho", "FW rounds", "FW msgs", "FL rounds",
              "FL msgs");
  for (const auto& [name, schedule] : scenarios) {
    const auto rho = sim::schedule_awake_distance(g, schedule);
    const auto fast =
        sim::run_sync(inst, schedule, 3, algo::fast_wakeup_kernel());
    const auto flood =
        sim::run_sync(inst, schedule, 3, algo::flooding_kernel());
    std::printf("%-30s %8u %10u | %10llu %10llu | %10llu %10llu%s\n", name,
                rho, 10 * rho,
                static_cast<unsigned long long>(fast.wakeup_span()),
                static_cast<unsigned long long>(fast.metrics.messages),
                static_cast<unsigned long long>(flood.wakeup_span()),
                static_cast<unsigned long long>(flood.metrics.messages),
                fast.all_awake() && flood.all_awake() ? "" : "  (!!)");
  }

  std::printf(
      "\ntakeaway: FastWakeUp keeps its 10*rho_awk promise whenever the "
      "adversary front-loads its wake-ups (storm rows include wake-ups the "
      "adversary itself delays). On a sparse torus flooding is already "
      "message-cheap; Theorem 4's subsampling pays off on dense graphs, "
      "where flooding costs Theta(m) >> n^{3/2} — see "
      "bench_claims --rows thm4.\n");
  return 0;
}
