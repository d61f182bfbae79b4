// The flagship reproduction artifact: regenerates the paper's Table 1 as a
// single table, one row per theorem, with *measured* values substituted for
// the asymptotic claims. Shared workload where the model permits (a connected
// G(n, p) with a random 20% awake set); the lower-bound rows use their own
// construction families, as in the paper.
//
// Reading guide: each measured cell is followed by the paper's bound in
// brackets; the "ratio" column divides measurement by bound (constant across
// n => the asymptotic shape holds — see the per-theorem benches for the
// n-sweeps that establish constancy).
#include <cmath>
#include <cstdio>

#include "advice/child_encoding.hpp"
#include "advice/fip06.hpp"
#include "advice/spanner_scheme.hpp"
#include "advice/sqrt_threshold.hpp"
#include "algo/fast_wakeup.hpp"
#include "algo/flooding.hpp"
#include "algo/ranked_dfs.hpp"
#include "bench_util.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "lb/beta_probing.hpp"
#include "lb/lower_bound_graphs.hpp"
#include "lb/nih.hpp"
#include "lb/time_restricted.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rise;

struct Workload {
  graph::Graph g;
  sim::WakeSchedule schedule;
  std::uint32_t rho = 0;
  std::uint32_t diameter = 0;
};

Workload make_workload(graph::NodeId n) {
  Workload w;
  Rng rng(2026);
  w.g = graph::connected_gnp(n, 8.0 / n, rng);
  w.schedule = sim::wake_random_subset(n, 0.2, rng);
  w.rho = sim::schedule_awake_distance(w.g, w.schedule);
  w.diameter = graph::diameter(w.g);
  return w;
}

sim::Instance make_inst(const graph::Graph& g, sim::Knowledge k,
                        sim::Bandwidth b) {
  sim::InstanceOptions opt;
  opt.knowledge = k;
  opt.bandwidth = b;
  Rng rng(7);
  return sim::Instance::create(g, opt, rng);
}

void table1() {
  const graph::NodeId n = 1000;
  const Workload w = make_workload(n);
  std::printf(
      "workload: connected G(%u, 8/n), m=%zu, D=%u, 20%% awake (rho_awk=%u); "
      "lower-bound rows use their own families.\n\n",
      n, w.g.num_edges(), w.diameter, w.rho);

  bench::Table table({"row", "model", "time (measured)", "messages",
                      "advice max/avg (bits)", "paper bound (T | M | A)"});

  {  // Theorem 3
    const auto inst =
        make_inst(w.g, sim::Knowledge::KT1, sim::Bandwidth::LOCAL);
    const auto delays = sim::unit_delay();
    const auto r = sim::run_async(inst, *delays, w.schedule, 1,
                                  algo::ranked_dfs_kernel());
    table.add_row({"Thm 3 RankedDFS", "async KT1 LOCAL",
                   bench::fmt_f(r.metrics.time_units(), 0) + " units",
                   bench::fmt_u(r.metrics.messages), "-",
                   "O(n log n) | O(n log n) | -"});
  }
  {  // Theorem 4
    const auto inst =
        make_inst(w.g, sim::Knowledge::KT1, sim::Bandwidth::LOCAL);
    const auto r = sim::run_sync(inst, w.schedule, 1,
                                 algo::fast_wakeup_kernel());
    table.add_row({"Thm 4 FastWakeUp", "sync KT1 LOCAL",
                   bench::fmt_u(r.wakeup_span()) + " rounds",
                   bench::fmt_u(r.metrics.messages), "-",
                   "10 rho_awk | O(n^1.5 sqrt(log n)) | -"});
  }
  auto advice_row = [&](const char* name, advice::AdvisingScheme scheme,
                        const char* bound) {
    auto inst = make_inst(w.g, sim::Knowledge::KT0, sim::Bandwidth::CONGEST);
    const auto stats = advice::apply_oracle(inst, *scheme.oracle);
    const auto delays = sim::unit_delay();
    const auto r =
        sim::run_async(inst, *delays, w.schedule, 1, scheme.kernel);
    table.add_row({name, "async KT0 CONGEST",
                   bench::fmt_f(r.metrics.time_units(), 0) + " units",
                   bench::fmt_u(r.metrics.messages),
                   bench::fmt_u(stats.max_bits) + " / " +
                       bench::fmt_f(stats.avg_bits, 1),
                   bound});
  };
  advice_row("Cor 1 [FIP06]", advice::fip06_scheme(),
             "O(D) | O(n) | O(n) max, O(log n) avg");
  advice_row("Thm 5(A) sqrt-threshold", advice::sqrt_threshold_scheme(),
             "O(D) | O(n^1.5) | O(sqrt(n) log n)");
  advice_row("Thm 5(B) child-encoding", advice::child_encoding_scheme(),
             "O(D log n) | O(n) | O(log n)");
  advice_row("Thm 6 spanner k=3", advice::spanner_scheme(3),
             "O(k rho log n) | O(k n^{1+1/k}) | O(n^{1/k} log^2 n)");
  advice_row("Cor 2 spanner k=log n", advice::corollary2_scheme(),
             "O(rho log^2 n) | O(n log^2 n) | O(log^2 n)");
  {  // Theorem 1 (lower bound; achievable side at beta = 4)
    const graph::NodeId fam_n = 128;
    const auto fam = lb::make_kt0_family(fam_n);
    Rng rng(3);
    auto inst = lb::make_kt0_instance(fam, rng);
    const auto scheme = lb::beta_probing_scheme(4);
    const auto stats = advice::apply_oracle(inst, *scheme.oracle);
    const auto delays = sim::unit_delay();
    const auto r = sim::run_async(inst, *delays, fam.centers_awake(), 1,
                                  scheme.kernel);
    table.add_row({"Thm 1 (LB, beta=4 probing)", "sync/async KT0 + advice",
                   bench::fmt_f(r.metrics.time_units(), 0) + " units",
                   bench::fmt_u(r.metrics.messages) + " (n=128)",
                   bench::fmt_u(stats.max_bits) + " / -",
                   ">= n^2/2^{b+4}log n msgs | Omega(beta) advice"});
  }
  {  // Theorem 2 (lower bound; achievable side: 1-round broadcast on G_3)
    const auto fam = lb::make_kt1_family(3, 7);
    Rng rng(4);
    const auto inst = lb::make_kt1_instance(fam.family, rng);
    const auto delays = sim::unit_delay();
    const auto r =
        sim::run_async(inst, *delays, fam.family.centers_awake(), 1,
                       lb::centers_broadcast_kernel());
    table.add_row({"Thm 2 (LB, 1-unit bcast on G_3)", "sync/async KT1 LOCAL",
                   bench::fmt_f(r.metrics.time_units(), 0) + " unit",
                   bench::fmt_u(r.metrics.messages) + " (n=343)", "-",
                   "(k+1)-time => Omega(n^{1+1/k}) msgs"});
  }
  {  // flooding baseline
    const auto inst =
        make_inst(w.g, sim::Knowledge::KT0, sim::Bandwidth::CONGEST);
    const auto delays = sim::unit_delay();
    const auto r = sim::run_async(inst, *delays, w.schedule, 1,
                                  algo::flooding_kernel());
    table.add_row({"baseline flooding", "async KT0 CONGEST",
                   bench::fmt_f(r.metrics.time_units(), 0) + " units",
                   bench::fmt_u(r.metrics.messages), "-",
                   "rho_awk | Theta(m) | -"});
  }
  table.print();
}

// Distributions over seeds for every spec-expressible Table-1 row, computed
// in parallel by the campaign runner (deterministic for any core count).
// Set RISE_BENCH_JSON_DIR to also dump per-trial BENCH_table1_*.json.
void table1_distributions() {
  const std::size_t kSeeds = 16;
  bench::Table table({"row", "algo spec", "messages (mean +- sd)",
                      "msgs p50/p90/max", "time units (mean +- sd)",
                      "runs (fail/err)"});
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"Thm 3 RankedDFS", "ranked_dfs"},
      {"Thm 4 FastWakeUp", "fast_wakeup"},
      {"Cor 1 [FIP06]", "fip06"},
      {"Thm 5(A) sqrt-threshold", "sqrt"},
      {"Thm 5(B) child-encoding", "cen"},
      {"Thm 6 spanner k=3", "spanner:3"},
      {"Cor 2 spanner k=log n", "cor2"},
      {"baseline flooding", "flooding"},
  };
  for (const auto& [name, algo] : rows) {
    app::ExperimentSpec spec;
    spec.graph = "cgnp:1000:0.008";
    spec.schedule = "random:0.2";
    spec.algorithm = algo;
    spec.delay = "unit";
    spec.seed = 2026;
    std::string artifact = "table1_" + algo;
    for (char& c : artifact) {
      if (c == ':') c = '_';
    }
    const auto result = bench::campaign_sweep(spec, kSeeds, artifact);
    const auto& t = result.total;
    table.add_row({name, algo, bench::fmt_mean_sd(t.messages, 0),
                   bench::fmt_quantiles(t.messages, 0),
                   bench::fmt_mean_sd(t.time_units, 1),
                   bench::fmt_u(t.trials) + " (" + bench::fmt_u(t.failures) +
                       "/" + bench::fmt_u(t.errors) + ")"});
  }
  table.print();
}

}  // namespace

int main() {
  bench::section("Table 1, reproduced (measured values on a shared workload)");
  table1();
  bench::section("Table 1 rows as distributions over 16 seeds (campaign "
                 "runner, all cores)");
  table1_distributions();
  std::printf(
      "\nPer-theorem n-sweeps (bench_thm*_*) establish that each measured "
      "column scales as the bracketed bound; this table is the one-page "
      "cross-section at n = 1000.\n");
  return 0;
}
