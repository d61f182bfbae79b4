#include "lb/beta_probing.hpp"

#include <gtest/gtest.h>

#include "lb/nih.hpp"
#include "sim/kernel.hpp"

namespace rise::lb {
namespace {

sim::RunResult run_scheme(const LowerBoundFamily& fam, unsigned beta,
                          std::uint64_t seed, sim::Instance* out_inst) {
  Rng rng(seed);
  auto inst = make_kt0_instance(fam, rng);
  advice::apply_oracle(inst, *beta_probing_oracle(beta));
  const auto delays = sim::unit_delay();
  const auto result =
      sim::run_async(inst, *delays, fam.centers_awake(), seed,
                     beta_probing_kernel(beta));
  if (out_inst != nullptr) *out_inst = std::move(inst);
  return result;
}

TEST(BetaProbing, SolvesWakeUpForAllBeta) {
  const auto fam = make_kt0_family(16);
  for (unsigned beta : {0u, 1u, 2u, 4u, 8u}) {
    const auto result = run_scheme(fam, beta, 3, nullptr);
    EXPECT_TRUE(result.all_awake()) << "beta=" << beta;
  }
}

TEST(BetaProbing, SolvesNihExactly) {
  const auto fam = make_kt0_family(20);
  for (unsigned beta : {0u, 3u, 5u}) {
    sim::Instance inst;
    const auto result = run_scheme(fam, beta, 7, &inst);
    EXPECT_EQ(nih_correct_count(result, inst, fam), fam.n)
        << "beta=" << beta;
  }
}

TEST(BetaProbing, AdviceLengthIsBetaPlusOne) {
  Rng rng(11);
  const auto fam = make_kt0_family(32);
  auto inst = make_kt0_instance(fam, rng);
  const auto stats = advice::apply_oracle(inst, *beta_probing_oracle(4));
  EXPECT_EQ(stats.max_bits, 5u);  // broadcaster bit + 4 prefix bits
  // U and W nodes carry no advice: total is centers only.
  EXPECT_EQ(stats.total_bits, 5u * fam.n);
}

TEST(BetaProbing, MessagesHalveWithEachAdviceBit) {
  // The Theorem-1 trade-off: messages ~ n^2 / 2^beta.
  const auto fam = make_kt0_family(64);
  std::uint64_t prev = ~0ull;
  for (unsigned beta : {0u, 1u, 2u, 3u}) {
    const auto result = run_scheme(fam, beta, 5, nullptr);
    EXPECT_LT(result.metrics.messages, prev) << "beta=" << beta;
    // Expect roughly a halving: allow generous slack for rounding.
    if (prev != ~0ull) {
      EXPECT_GT(result.metrics.messages, (prev - 200) / 4)
          << "beta=" << beta;
    }
    prev = result.metrics.messages;
  }
}

TEST(BetaProbing, FullAdviceGivesLinearMessages) {
  // beta = port width: each center probes exactly one port.
  const auto fam = make_kt0_family(32);
  const auto result = run_scheme(fam, 32, 9, nullptr);
  EXPECT_TRUE(result.all_awake());
  // n probes + n leaf replies + (n+1) broadcast.
  EXPECT_LE(result.metrics.messages, 3ull * fam.n + 2);
}

TEST(BetaProbing, TimeIsConstant) {
  const auto fam = make_kt0_family(24);
  for (unsigned beta : {0u, 4u}) {
    const auto result = run_scheme(fam, beta, 13, nullptr);
    EXPECT_LE(result.metrics.time_units(), 3.0) << "beta=" << beta;
  }
}

}  // namespace
}  // namespace rise::lb
