// A tour of the lower-bound machinery: why wake-up is *hard*.
//
// Reproduces, on concrete instances, the three ingredients of the paper's
// negative results:
//   1. the KT0 family G where each center hides its crucial neighbor among
//      n+1 uniformly-permuted ports (Theorem 1),
//   2. the advice/message trade-off: every advice bit halves the probing
//      bill (the achievable side of Theorem 1), and
//   3. the KT1 family G_k where high girth + a time limit force
//      Omega(n^{1+1/k}) messages (Theorem 2) — contrasted with what
//      unrestricted time buys (Theorem 3).
#include <cmath>
#include <cstdio>

#include "algo/ranked_dfs.hpp"
#include "graph/algorithms.hpp"
#include "lb/beta_probing.hpp"
#include "lb/lower_bound_graphs.hpp"
#include "lb/nih.hpp"
#include "lb/time_restricted.hpp"
#include "sim/kernel.hpp"

int main() {
  using namespace rise;

  std::printf("--- 1. The needle in the haystack (KT0) ---\n");
  const auto fam = lb::make_kt0_family(64);
  Rng rng(1);
  const auto inst = lb::make_kt0_instance(fam, rng);
  std::printf(
      "family G with n=%u: every center has %u ports; exactly one leads to "
      "a sleeping node that nobody else can wake.\n",
      fam.n, fam.graph.degree(fam.center(0)));
  std::printf("center v_0's crucial port this run: %u (adversary-chosen)\n\n",
              inst.neighbor_to_port(fam.center(0), fam.w_node(0)));

  std::printf("--- 2. Advice bits vs probing bill (Theorem 1) ---\n");
  std::printf("%8s %14s %20s\n", "beta", "messages", "n^2/2^(b+4)log2 n");
  for (unsigned beta : {0u, 2u, 4u, 6u}) {
    auto advised = lb::make_kt0_instance(fam, rng);
    advice::apply_oracle(advised, *lb::beta_probing_oracle(beta));
    const auto delays = sim::unit_delay();
    const auto result =
        sim::run_async(advised, *delays, fam.centers_awake(), beta,
                       lb::beta_probing_kernel(beta));
    const double n = fam.n;
    std::printf("%8u %14llu %20.0f\n", beta,
                static_cast<unsigned long long>(result.metrics.messages),
                n * n / (std::pow(2.0, beta + 4) * std::log2(n)));
  }

  std::printf("\n--- 3. Time restriction vs messages (Theorem 2 / 3) ---\n");
  const auto kt1 = lb::make_kt1_family(3, 7);  // n = 343, girth >= 8
  Rng rng2(2);
  const auto kt1_inst = lb::make_kt1_instance(kt1.family, rng2);
  std::printf("family G_3 with q=7: n=%u, degree %u, girth %u\n",
              kt1.family.n, kt1.center_degree,
              graph::girth(kt1.family.graph));
  const auto delays = sim::unit_delay();
  const auto fast =
      sim::run_async(kt1_inst, *delays, kt1.family.centers_awake(), 3,
                     lb::ttl_flood_kernel(1));
  const auto slow = sim::run_async(kt1_inst, *delays,
                                   kt1.family.centers_awake(), 3,
                                   algo::ranked_dfs_kernel());
  std::printf(
      "1-time-unit broadcast : %6llu msgs, %6.0f time units  (the "
      "n^{1+1/k} lower bound is unavoidable here)\n",
      static_cast<unsigned long long>(fast.metrics.messages),
      fast.metrics.time_units());
  std::printf(
      "unrestricted RankedDFS: %6llu msgs, %6.0f time units  (Theorem 3: "
      "near-linear messages, linear time)\n",
      static_cast<unsigned long long>(slow.metrics.messages),
      slow.metrics.time_units());
  std::printf(
      "\ntakeaway: the adversary cannot be beaten on both axes at once — "
      "that is the content of Theorem 2.\n");
  return 0;
}
