// Table 1, rows "Theorem 5(A)" and "Theorem 5(B)": the sqrt-threshold and
// child-encoding advising schemes in the asynchronous KT0 CONGEST model.
//
//   5(A): O(D) time, O(n^{3/2}) msgs, O(sqrt(n) log n) max advice.
//   5(B): O(D log n) time, O(n) msgs, O(log n) max advice.
//
// The head-to-head table makes the trade-off visible: (A) buys optimal time
// with more messages and longer advice; (B) compresses advice to O(log n)
// and messages to O(n) at a log-factor in time.
#include <cmath>
#include <cstdio>

#include "advice/child_encoding.hpp"
#include "advice/fip06.hpp"
#include "advice/sqrt_threshold.hpp"
#include "bench_util.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rise;

struct Row {
  std::string scheme;
  double time_units;
  std::uint64_t messages;
  std::size_t max_advice;
  double avg_advice;
};

Row measure(const graph::Graph& g, const advice::AdvisingScheme& scheme,
            const std::string& name, std::uint64_t seed) {
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT0;
  opt.bandwidth = sim::Bandwidth::CONGEST;
  Rng rng(seed);
  auto inst = sim::Instance::create(g, opt, rng);
  const auto stats = advice::apply_oracle(inst, *scheme.oracle);
  Rng srng(seed + 1);
  const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.15, srng);
  const auto delays = sim::unit_delay();
  const auto result =
      sim::run_async(inst, *delays, schedule, seed, scheme.kernel);
  return {name, result.metrics.time_units(), result.metrics.messages,
          stats.max_bits, stats.avg_bits};
}

void head_to_head(const std::string& gname, const graph::Graph& g) {
  const double n = g.num_nodes();
  const double d = graph::diameter(g);
  std::printf("\nworkload %s: n=%u m=%zu D=%.0f\n", gname.c_str(),
              g.num_nodes(), g.num_edges(), d);
  bench::Table table({"scheme", "time_units", "time/D", "messages", "msgs/n",
                      "max advice", "avg advice"});
  std::vector<Row> rows;
  rows.push_back(measure(g, advice::fip06_scheme(), "Cor1 (FIP06)", 3));
  rows.push_back(measure(g, advice::sqrt_threshold_scheme(), "Thm 5(A)", 3));
  rows.push_back(measure(g, advice::child_encoding_scheme(), "Thm 5(B) CEN", 3));
  for (const auto& r : rows) {
    table.add_row({r.scheme, bench::fmt_f(r.time_units, 1),
                   bench::fmt_f(r.time_units / d, 2),
                   bench::fmt_u(r.messages),
                   bench::fmt_f(static_cast<double>(r.messages) / n, 2),
                   bench::fmt_u(r.max_advice), bench::fmt_f(r.avg_advice, 1)});
  }
  table.print();
}

void max_advice_sweep() {
  bench::section("Theorem 5: max-advice scaling on stars (worst case for "
                 "tree degree)");
  bench::Table table({"n", "5A max advice", "5A/(sqrt(n) log2 n)",
                      "5B max advice", "5B/log2(n)"});
  for (graph::NodeId n : {256u, 1024u, 4096u}) {
    const auto g = graph::star(n);
    sim::InstanceOptions opt;
    opt.knowledge = sim::Knowledge::KT0;
    opt.bandwidth = sim::Bandwidth::CONGEST;
    Rng r1(1), r2(2);
    auto ia = sim::Instance::create(g, opt, r1);
    auto ib = sim::Instance::create(g, opt, r2);
    const auto sa = advice::apply_oracle(ia, *advice::sqrt_threshold_oracle());
    const auto sb = advice::apply_oracle(ib, *advice::child_encoding_oracle());
    const double logn = std::log2(static_cast<double>(n));
    table.add_row(
        {bench::fmt_u(n), bench::fmt_u(sa.max_bits),
         bench::fmt_f(static_cast<double>(sa.max_bits) /
                          (std::sqrt(static_cast<double>(n)) * logn),
                      3),
         bench::fmt_u(sb.max_bits),
         bench::fmt_f(static_cast<double>(sb.max_bits) / logn, 3)});
  }
  table.print();
  std::printf("shape check: 5B's max advice tracks log2(n) even where tree "
              "degrees are Theta(n).\n");
}

}  // namespace

int main() {
  bench::section("Theorem 5(A) vs 5(B) vs Corollary 1 head-to-head");
  Rng rng(1);
  head_to_head("gnp_800", graph::connected_gnp(800, 8.0 / 800, rng));
  head_to_head("dense_gnp_500", graph::connected_gnp(500, 0.25, rng));
  head_to_head("grid_25x25", graph::grid(25, 25));
  head_to_head("star_1200", graph::star(1200));
  max_advice_sweep();
  return 0;
}
