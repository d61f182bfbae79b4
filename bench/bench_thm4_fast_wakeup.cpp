// Table 1, row "Theorem 4": FastWakeUp in the synchronous KT1 LOCAL model.
// Claim: wake-up within 10 * rho_awk rounds, O(n^{3/2} sqrt(log n)) messages
// w.h.p.
//
// Series printed:
//   (a) n-sweep with a dominating awake set (rho_awk = 1, the hard message
//       regime): rounds <= 10, messages / (n^{3/2} sqrt(ln n)) bounded, and
//       the flooding comparison (FastWakeUp wins on messages once the graph
//       is dense enough);
//   (b) rho-sweep: wake-up span scales linearly in rho_awk with slope <= 10.
#include <cmath>
#include <cstdio>

#include "algo/fast_wakeup.hpp"
#include "algo/flooding.hpp"
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
  bench::section(
      "Theorem 4 (a): n-sweep, dominating awake set (rho_awk = 1)");
  bench::Table table({"n", "m", "rounds", "messages",
                      "msgs/(n^1.5 sqrt(ln n))", "flood msgs (2m)",
                      "fw/flood"});
  for (graph::NodeId n : {250u, 500u, 1000u, 2000u}) {
    Rng rng(n);
    // Dense-ish graph so the message bound bites: p = n^{-1/2} means
    // m ~ n^{3/2}/2 and flooding pays ~n^{3/2} while FastWakeUp subsamples.
    const double p = 1.0 / std::sqrt(static_cast<double>(n));
    const auto g = graph::connected_gnp(n, p, rng);
    const auto inst = kt1_instance(g, n + 5);
    const auto schedule = sim::dominating_set_wakeup(g);
    const auto result =
        sim::run_sync(inst, schedule, n, algo::fast_wakeup_kernel());
    const double envelope = std::pow(static_cast<double>(n), 1.5) *
                            std::sqrt(std::log(static_cast<double>(n)));
    table.add_row(
        {bench::fmt_u(n), bench::fmt_u(g.num_edges()),
         bench::fmt_u(result.wakeup_span()),
         bench::fmt_u(result.metrics.messages),
         bench::fmt_f(static_cast<double>(result.metrics.messages) / envelope,
                      3),
         bench::fmt_u(2 * g.num_edges()),
         bench::fmt_f(static_cast<double>(result.metrics.messages) /
                          (2.0 * static_cast<double>(g.num_edges())),
                      3)});
  }
  table.print();
  std::printf(
      "shape check: rounds <= 10 on every row; the envelope ratio stays "
      "bounded while fw/flood falls as n grows.\n");
}

void rho_sweep() {
  bench::section("Theorem 4 (b): rho_awk-sweep on a 50x50 torus");
  const auto g = graph::torus(50, 50);
  const auto inst = kt1_instance(g, 2);
  bench::Table table({"rho_awk", "wakeup_span (rounds)", "span/rho",
                      "messages"});
  // Waking a single node at increasing torus distances from the corner
  // changes nothing; instead we vary the awake set density.
  Rng rng(5);
  struct S {
    std::string label;
    sim::WakeSchedule schedule;
  };
  std::vector<sim::WakeSchedule> schedules;
  schedules.push_back(sim::wake_single(0));                        // rho = 50
  schedules.push_back(sim::wake_set({0, 25 * 50 + 25}));           // rho ~ 25
  schedules.push_back(sim::wake_random_subset(2500, 0.01, rng));   // small rho
  schedules.push_back(sim::dominating_set_wakeup(g));              // rho = 1
  for (const auto& schedule : schedules) {
    const auto rho = sim::schedule_awake_distance(g, schedule);
    const auto result =
        sim::run_sync(inst, schedule, 9, algo::fast_wakeup_kernel());
    table.add_row({bench::fmt_u(rho), bench::fmt_u(result.wakeup_span()),
                   bench::fmt_f(static_cast<double>(result.wakeup_span()) /
                                    static_cast<double>(rho),
                                2),
                   bench::fmt_u(result.metrics.messages)});
  }
  table.print();
  std::printf("shape check: span/rho <= 10 on every row (Theorem 4's 10*rho "
              "guarantee).\n");
}

}  // namespace

int main() {
  n_sweep();
  rho_sweep();
  return 0;
}
