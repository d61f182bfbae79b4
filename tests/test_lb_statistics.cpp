// Multi-seed statistical validation of the two lower-bound curves, using
// SampleStats: the measured/predicted ratios must be concentrated (small
// relative spread) and consistent across instance randomness — i.e., the
// curves are properties of the construction, not of one lucky seed.
#include <gtest/gtest.h>

#include <cmath>

#include "lb/beta_probing.hpp"
#include "lb/nih.hpp"
#include "lb/time_restricted.hpp"
#include "sim/kernel.hpp"
#include "support/stats.hpp"

namespace rise::lb {
namespace {

TEST(Theorem1Statistics, ProbingCostConcentratesOnTheCurve) {
  const graph::NodeId n = 64;
  const auto fam = make_kt0_family(n);
  for (unsigned beta : {2u, 4u}) {
    SampleStats ratio;
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      Rng rng(seed);
      auto inst = make_kt0_instance(fam, rng);
      advice::apply_oracle(inst, *beta_probing_oracle(beta));
      const auto delays = sim::unit_delay();
      const auto result =
          sim::run_async(inst, *delays, fam.centers_awake(), seed,
                         beta_probing_kernel(beta));
      ASSERT_TRUE(result.all_awake());
      const double curve =
          2.0 * n * std::ceil(static_cast<double>(n + 1) / (1u << beta));
      ratio.add(static_cast<double>(result.metrics.messages) / curve);
    }
    // Concentrated near 1 with tiny spread: the probing count is almost
    // deterministic (it depends only on how prefixes split the ports).
    EXPECT_GT(ratio.mean(), 0.4) << "beta=" << beta;
    EXPECT_LT(ratio.mean(), 1.2) << "beta=" << beta;
    EXPECT_LT(ratio.stddev() / ratio.mean(), 0.2) << "beta=" << beta;
  }
}

TEST(Theorem1Statistics, NihAlwaysSolvedRegardlessOfPorts) {
  const graph::NodeId n = 32;
  const auto fam = make_kt0_family(n);
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    Rng rng(seed);
    auto inst = make_kt0_instance(fam, rng);
    advice::apply_oracle(inst, *beta_probing_oracle(3));
    const auto delays = sim::unit_delay();
    const auto result =
        sim::run_async(inst, *delays, fam.centers_awake(), seed,
                       beta_probing_kernel(3));
    EXPECT_EQ(nih_correct_count(result, inst, fam), n) << "seed " << seed;
  }
}

TEST(Theorem2Statistics, BroadcastCostIsIdPermutationInvariant) {
  // The broadcast message count is a topology property: every ID
  // permutation of G_k yields exactly n * (n^{1/k} + 1) messages.
  const auto fam = make_kt1_family(3, 5);
  SampleStats msgs;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const auto inst = make_kt1_instance(fam.family, rng);
    const auto delays = sim::unit_delay();
    const auto result =
        sim::run_async(inst, *delays, fam.family.centers_awake(), seed,
                       ttl_flood_kernel(1));
    ASSERT_TRUE(result.all_awake());
    msgs.add(static_cast<double>(result.metrics.messages));
  }
  EXPECT_DOUBLE_EQ(msgs.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(msgs.mean(),
                   static_cast<double>(fam.family.n) * fam.center_degree);
}

TEST(Theorem2Statistics, ExponentEstimateMatchesOneOverK) {
  // Fit the growth exponent of broadcast messages across q in {3,5,7,11}:
  // log(messages) ~ (1 + 1/k) log n.
  const unsigned k = 3;
  std::vector<double> log_n, log_m;
  for (std::uint64_t q : {3ull, 5ull, 7ull, 11ull}) {
    const auto fam = make_kt1_family(k, q);
    Rng rng(q);
    const auto inst = make_kt1_instance(fam.family, rng);
    const auto delays = sim::unit_delay();
    const auto result =
        sim::run_async(inst, *delays, fam.family.centers_awake(), q,
                       ttl_flood_kernel(1));
    log_n.push_back(std::log(static_cast<double>(fam.family.n)));
    log_m.push_back(std::log(static_cast<double>(result.metrics.messages)));
  }
  // Least-squares slope.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double cnt = static_cast<double>(log_n.size());
  for (std::size_t i = 0; i < log_n.size(); ++i) {
    sx += log_n[i];
    sy += log_m[i];
    sxx += log_n[i] * log_n[i];
    sxy += log_n[i] * log_m[i];
  }
  const double slope = (cnt * sxy - sx * sy) / (cnt * sxx - sx * sx);
  EXPECT_NEAR(slope, 1.0 + 1.0 / k, 0.08);
}

}  // namespace
}  // namespace rise::lb
