// Table 1, row "Theorem 1": the advice-vs-messages trade-off for KT0
// randomized advising schemes.
//
// Lower bound (paper): expected messages <= n^2 / 2^{beta+4} log2(n) forces
// Omega(beta) advice bits per node. Achievable side (this harness): with
// beta prefix bits per center, the probing scheme sends ~ 2 n (n+1)/2^beta
// messages. Sweeping beta on the family G traces both curves; their ratio is
// bounded, i.e. the lower bound is tight up to O(log n).
//
// Each beta point is a *distribution* over seeds (instance ports and
// probing order are randomized), run as a serial seed sweep — the family G
// is not expressible as a spec string. NIH correctness of every center is
// asserted inside each trial; a violation would surface in the err column.
#include <cmath>
#include <cstdio>

#include "advice/advice.hpp"
#include "bench_util.hpp"
#include "lb/beta_probing.hpp"
#include "lb/nih.hpp"
#include "sim/kernel.hpp"
#include "support/check.hpp"

namespace {

using namespace rise;

constexpr std::size_t kSeeds = 8;

/// One probing trial on a fresh random instance of G. `advice_bits` receives
/// the oracle's advice length, a property of beta alone.
sim::RunResult beta_trial(graph::NodeId n, unsigned beta, std::uint64_t seed,
                          std::uint64_t& advice_bits) {
  const auto fam = lb::make_kt0_family(n);
  Rng rng(mix_seed(seed, 0xE));
  auto inst = lb::make_kt0_instance(fam, rng);
  const auto advice =
      advice::apply_oracle(inst, *lb::beta_probing_oracle(beta));
  const auto delays = sim::unit_delay();
  sim::RunResult result = sim::run_async(
      inst, *delays, fam.centers_awake(), seed, lb::beta_probing_kernel(beta));
  RISE_CHECK_MSG(lb::nih_correct_count(result, inst, fam) == n,
                 "a center mis-identified its crucial neighbor");
  advice_bits = advice.max_bits;
  return result;
}

void beta_sweep(graph::NodeId n) {
  std::printf("\nfamily G with |V| = %u (3n = %u nodes, centers awake), %zu "
              "seeds per beta\n",
              n, 3 * n, kSeeds);
  bench::Table table({"beta", "advice bits/center", "messages (mean +- sd)",
                      "LB: n^2/2^{b+4}lg n", "mean/LB", "time_units",
                      "runs (fail/err)"});
  const double logn = std::log2(static_cast<double>(n));
  for (unsigned beta = 0; beta <= static_cast<unsigned>(logn); ++beta) {
    std::uint64_t advice_bits = 0;
    const bench::SeedSweep t =
        bench::seed_sweep(beta + 1, kSeeds, [&](std::uint64_t seed) {
          return beta_trial(n, beta, seed, advice_bits);
        });
    const double lower = static_cast<double>(n) * n /
                         (std::pow(2.0, beta + 4) * logn);
    table.add_row(
        {bench::fmt_u(beta), bench::fmt_u(advice_bits),
         bench::fmt_mean_sd(t.messages, 0), bench::fmt_f(lower, 0),
         bench::fmt_f(t.messages.count() > 0 ? t.messages.mean() / lower : 0.0,
                      1),
         bench::fmt_mean_sd(t.time_units, 1), t.runs()});
  }
  table.print();
}

}  // namespace

int main() {
  bench::section(
      "Theorem 1: advice length vs message complexity on the KT0 family G");
  beta_sweep(128);
  beta_sweep(256);
  std::printf(
      "\nshape check: mean measured messages halve with every advice bit, "
      "tracking the n^2/2^beta lower-bound curve within an O(log n) factor "
      "(the mean/LB column); every center solves NIH correctly in every "
      "trial (asserted inside the trial function — a violation would show "
      "up as an error).\n");
  return 0;
}
