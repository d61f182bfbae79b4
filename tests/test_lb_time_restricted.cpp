#include "lb/time_restricted.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "algo/ranked_dfs.hpp"
#include "lb/lower_bound_graphs.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"

namespace rise::lb {
namespace {

TEST(CentersBroadcast, WakesEveryoneInOneTimeUnit) {
  Rng rng(1);
  const auto fam = make_kt1_family(3, 3);
  const auto inst = make_kt1_instance(fam.family, rng);
  const auto delays = sim::unit_delay();
  const auto result =
      sim::run_async(inst, *delays, fam.family.centers_awake(), 2,
                     ttl_flood_kernel(1));
  EXPECT_TRUE(result.all_awake());
  EXPECT_LE(result.metrics.time_units(), 1.0);
}

TEST(CentersBroadcast, MessageCountIsNTimesDegree) {
  Rng rng(2);
  const auto fam = make_kt1_family(3, 5);  // n = 125, deg = 6
  const auto inst = make_kt1_instance(fam.family, rng);
  const auto delays = sim::unit_delay();
  const auto result =
      sim::run_async(inst, *delays, fam.family.centers_awake(), 2,
                     ttl_flood_kernel(1));
  EXPECT_EQ(result.metrics.messages,
            static_cast<std::uint64_t>(fam.family.n) * fam.center_degree);
}

TEST(CentersBroadcast, MatchesN1Plus1OverKScaling) {
  // Theorem 2's achievable side: messages = n * (n^{1/k} + 1) ~ n^{1+1/k}.
  for (std::uint64_t q : {3ull, 5ull, 7ull}) {
    Rng rng(q);
    const auto fam = make_kt1_family(3, q);
    const auto inst = make_kt1_instance(fam.family, rng);
    const auto delays = sim::unit_delay();
    const auto result =
        sim::run_async(inst, *delays, fam.family.centers_awake(), 2,
                       ttl_flood_kernel(1));
    const double n = fam.family.n;
    const double predicted = n * (std::pow(n, 1.0 / 3) + 1);
    EXPECT_NEAR(static_cast<double>(result.metrics.messages), predicted,
                predicted * 0.01)
        << "q=" << q;
  }
}

TEST(TtlFlood, TtlZeroSendsNothing) {
  const auto g = graph::path(5);
  const auto inst = test::make_instance(g, sim::Knowledge::KT1);
  const auto result = test::run_async_unit(
      inst, sim::wake_single(0), ttl_flood_kernel(0));
  EXPECT_EQ(result.metrics.messages, 0u);
  EXPECT_EQ(result.awake_count(), 1u);
}

TEST(TtlFlood, TtlRWakesRadiusR) {
  const auto g = graph::path(10);
  const auto inst = test::make_instance(g, sim::Knowledge::KT1);
  for (std::uint32_t ttl : {1u, 3u, 5u}) {
    const auto result = test::run_async_unit(
        inst, sim::wake_single(0), ttl_flood_kernel(ttl));
    EXPECT_EQ(result.awake_count(), ttl + 1) << "ttl=" << ttl;
  }
}

TEST(TtlFlood, FullTtlEqualsFlooding) {
  Rng rng(3);
  const auto g = graph::connected_gnp(50, 0.1, rng);
  const auto inst = test::make_instance(g, sim::Knowledge::KT1);
  const auto result = test::run_async_unit(
      inst, sim::wake_single(0), ttl_flood_kernel(1000));
  EXPECT_TRUE(result.all_awake());
}

TEST(TradeOff, UnrestrictedTimeBeatsBroadcastOnMessages) {
  // The Theorem 2 / Theorem 3 tension: on G_k, RankedDFS sends far fewer
  // messages than the 1-round broadcast but takes Omega(n) time units.
  Rng rng(4);
  const auto fam = make_kt1_family(3, 5);  // n = 125, m ~ 750
  const auto inst = make_kt1_instance(fam.family, rng);
  const auto delays = sim::unit_delay();

  const auto broadcast =
      sim::run_async(inst, *delays, fam.family.centers_awake(), 2,
                     ttl_flood_kernel(1));
  const auto dfs = sim::run_async(inst, *delays, fam.family.centers_awake(),
                                  2, algo::ranked_dfs_kernel());
  ASSERT_TRUE(broadcast.all_awake());
  ASSERT_TRUE(dfs.all_awake());
  EXPECT_LE(broadcast.metrics.time_units(), 1.0);
  EXPECT_GT(dfs.metrics.time_units(),
            static_cast<double>(fam.family.n));  // Omega(n) time
}

}  // namespace
}  // namespace rise::lb
