// Table 1, row "Theorem 3": RankedDFS in the asynchronous KT1 LOCAL model.
// Claim: time and message complexity O(n log n) w.h.p., against an oblivious
// adversary that may stagger wake-ups arbitrarily.
//
// Series printed:
//   (a) n-sweep under the worst schedule we know (staggered doubling, the
//       Sec. 3.1.1 stress): messages/(n ln n) and time/(n ln n) stay bounded;
//   (b) schedule comparison at fixed n;
//   (c) flooding comparison: on dense graphs RankedDFS sends far fewer
//       messages (o(m)) at the cost of Theta(n) time.
#include <cmath>
#include <cstdio>

#include "algo/flooding.hpp"
#include "algo/ranked_dfs.hpp"
#include "algo/ranked_dfs_congest.hpp"
#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rise;

sim::Instance kt1_instance(const graph::Graph& g, std::uint64_t seed) {
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT1;
  opt.bandwidth = sim::Bandwidth::LOCAL;
  Rng rng(seed);
  return sim::Instance::create(g, opt, rng);
}

void n_sweep() {
  bench::section("Theorem 3 (a): n-sweep, staggered-doubling adversary");
  bench::Table table({"n", "m", "messages", "msgs/(n ln n)", "time_units",
                      "time/(n ln n)"});
  for (graph::NodeId n : {125u, 250u, 500u, 1000u, 2000u}) {
    Rng rng(n);
    const auto g = graph::connected_gnp(n, 8.0 / n, rng);
    const auto inst = kt1_instance(g, n + 1);
    const auto schedule = sim::staggered_doubling(n, 25, 2.0, rng);
    const auto delays = sim::unit_delay();
    const auto result = sim::run_async(inst, *delays, schedule, n,
                                       algo::ranked_dfs_kernel());
    const double nln = n * std::log(static_cast<double>(n));
    table.add_row(
        {bench::fmt_u(n), bench::fmt_u(g.num_edges()),
         bench::fmt_u(result.metrics.messages),
         bench::fmt_f(static_cast<double>(result.metrics.messages) / nln),
         bench::fmt_f(result.metrics.time_units(), 0),
         bench::fmt_f(result.metrics.time_units() / nln)});
  }
  table.print();
  std::printf(
      "shape check: both ratio columns stay O(1) as n doubles (the paper's "
      "O(n log n) w.h.p. bound).\n");
}

void schedule_comparison() {
  bench::section("Theorem 3 (b): adversarial schedule comparison (n = 1000)");
  const graph::NodeId n = 1000;
  Rng rng(17);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = kt1_instance(g, 3);
  bench::Table table({"schedule", "initially awake", "messages",
                      "time_units"});
  struct S {
    std::string name;
    sim::WakeSchedule schedule;
  };
  std::vector<S> schedules;
  schedules.push_back({"single", sim::wake_single(0)});
  schedules.push_back({"all", sim::wake_all(n)});
  schedules.push_back(
      {"random_30pct", sim::wake_random_subset(n, 0.3, rng)});
  schedules.push_back(
      {"staggered_x2", sim::staggered_doubling(n, 25, 2.0, rng)});
  for (auto& [name, schedule] : schedules) {
    const auto delays = sim::unit_delay();
    const auto result = sim::run_async(inst, *delays, schedule, 5,
                                       algo::ranked_dfs_kernel());
    table.add_row({name, bench::fmt_u(schedule.wakes.size()),
                   bench::fmt_u(result.metrics.messages),
                   bench::fmt_f(result.metrics.time_units(), 0)});
  }
  table.print();
}

void flooding_comparison() {
  bench::section("Theorem 3 (c): vs flooding on dense graphs");
  bench::Table table({"n", "m", "flood msgs", "dfs msgs", "dfs/flood",
                      "flood time", "dfs time"});
  for (graph::NodeId n : {200u, 400u, 800u}) {
    Rng rng(n);
    const auto g = graph::connected_gnp(n, 0.3, rng);
    const auto inst = kt1_instance(g, 11);
    const auto schedule = sim::wake_all(n);
    const auto delays = sim::unit_delay();
    const auto flood = sim::run_async(inst, *delays, schedule, 5,
                                      algo::flooding_kernel());
    const auto dfs = sim::run_async(inst, *delays, schedule, 5,
                                    algo::ranked_dfs_kernel());
    table.add_row(
        {bench::fmt_u(n), bench::fmt_u(g.num_edges()),
         bench::fmt_u(flood.metrics.messages),
         bench::fmt_u(dfs.metrics.messages),
         bench::fmt_f(static_cast<double>(dfs.metrics.messages) /
                          static_cast<double>(flood.metrics.messages),
                      3),
         bench::fmt_f(flood.metrics.time_units(), 0),
         bench::fmt_f(dfs.metrics.time_units(), 0)});
  }
  table.print();
  std::printf(
      "shape check: RankedDFS sends o(m) messages (ratio falls with density) "
      "but pays Theta(n) time — the Theorem 2 / Theorem 3 trade-off.\n");
}

void congest_gap() {
  bench::section(
      "Theorem 3 (d): why LOCAL matters — the CONGEST echo-DFS variant");
  bench::Table table({"n", "m", "LOCAL msgs", "CONGEST msgs",
                      "congest/local", "~m/n"});
  for (graph::NodeId n : {200u, 400u, 800u}) {
    Rng rng(n + 3);
    const auto g = graph::connected_gnp(n, 16.0 / n, rng);
    sim::InstanceOptions local_opt, congest_opt;
    local_opt.knowledge = sim::Knowledge::KT1;
    congest_opt.knowledge = sim::Knowledge::KT1;
    congest_opt.bandwidth = sim::Bandwidth::CONGEST;
    Rng r1(1), r2(1);
    const auto local_inst = sim::Instance::create(g, local_opt, r1);
    const auto congest_inst = sim::Instance::create(g, congest_opt, r2);
    const auto delays = sim::unit_delay();
    const auto local = sim::run_async(local_inst, *delays,
                                      sim::wake_single(0), 5,
                                      algo::ranked_dfs_kernel());
    const auto congest = sim::run_async(congest_inst, *delays,
                                        sim::wake_single(0), 5,
                                        algo::ranked_dfs_congest_kernel());
    table.add_row(
        {bench::fmt_u(n), bench::fmt_u(g.num_edges()),
         bench::fmt_u(local.metrics.messages),
         bench::fmt_u(congest.metrics.messages),
         bench::fmt_f(static_cast<double>(congest.metrics.messages) /
                          static_cast<double>(local.metrics.messages),
                      2),
         bench::fmt_f(static_cast<double>(g.num_edges()) / n, 2)});
  }
  table.print();
  std::printf(
      "without the LOCAL-model visited list, a token pays Theta(m) instead "
      "of Theta(n) — the congest/local ratio tracks the average degree. "
      "This is why Theorem 3 is stated for LOCAL.\n");
}

}  // namespace

int main() {
  n_sweep();
  schedule_comparison();
  flooding_comparison();
  congest_gap();
  return 0;
}
