// Baseline row of Table 1: the standard flooding algorithm.
// Claim: time = rho_awk exactly (in delay units), messages = 2m = Theta(m).
// This is the yardstick every other scheme's message count is compared to.
#include <cstdio>

#include "algo/flooding.hpp"
#include "bench_util.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rise;

void run() {
  bench::section("Baseline: flooding (KT0, async, no advice)");
  std::printf("paper: time rho_awk, messages Theta(m)\n\n");
  bench::Table table({"graph", "n", "m", "rho_awk", "time_units", "messages",
                      "msgs/2m"});
  Rng rng(1);
  struct W {
    std::string name;
    graph::Graph g;
  };
  std::vector<W> workloads;
  workloads.push_back({"grid_32x32", graph::grid(32, 32)});
  workloads.push_back({"gnp_1000", graph::connected_gnp(1000, 8.0 / 1000, rng)});
  workloads.push_back({"regular_1000_6", graph::random_regular(1000, 6, rng)});
  workloads.push_back({"lollipop_100_400", graph::lollipop(100, 400)});
  workloads.push_back({"tree_1500", graph::random_tree(1500, rng)});
  workloads.push_back({"hypercube_10", graph::hypercube(10)});

  for (const auto& [name, g] : workloads) {
    sim::InstanceOptions opt;
    opt.knowledge = sim::Knowledge::KT0;
    opt.bandwidth = sim::Bandwidth::CONGEST;
    Rng irng(7);
    const auto inst = sim::Instance::create(g, opt, irng);
    const auto schedule = sim::wake_single(0);
    const auto delays = sim::unit_delay();
    const auto result = sim::run_async(inst, *delays, schedule, 3,
                                       algo::flooding_kernel());
    const auto rho = graph::awake_distance(g, {0});
    table.add_row({name, bench::fmt_u(g.num_nodes()),
                   bench::fmt_u(g.num_edges()), bench::fmt_u(rho),
                   bench::fmt_f(result.metrics.time_units(), 1),
                   bench::fmt_u(result.metrics.messages),
                   bench::fmt_f(static_cast<double>(result.metrics.messages) /
                                    (2.0 * static_cast<double>(g.num_edges())),
                                3)});
  }
  table.print();
  std::printf(
      "\nshape check: msgs/2m == 1.000 on every row (each directed edge "
      "carries exactly one wake-up), time == rho_awk + echo.\n");
}

}  // namespace

int main() {
  run();
  return 0;
}
