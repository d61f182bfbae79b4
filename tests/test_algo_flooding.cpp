#include "algo/flooding.hpp"

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"

namespace rise::algo {
namespace {

using sim::Knowledge;

TEST(Flooding, WakesAllOnEveryCatalogGraph) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT0);
    const auto result =
        test::run_async_unit(inst, sim::wake_single(0), flooding_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(Flooding, TimeEqualsAwakeDistanceUnderUnitDelays) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT0);
    const auto schedule = sim::wake_single(0);
    const auto result =
        test::run_async_unit(inst, schedule, flooding_kernel());
    const auto rho = graph::awake_distance(g, {0});
    EXPECT_EQ(result.wakeup_span(), rho) << name;
  }
}

TEST(Flooding, MessageComplexityIsTwoM) {
  // Every node broadcasts exactly once: 2m messages total.
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT0);
    const auto result =
        test::run_async_unit(inst, sim::wake_single(0), flooding_kernel());
    EXPECT_EQ(result.metrics.messages, 2 * g.num_edges()) << name;
  }
}

TEST(Flooding, MultiSourceTimeIsRhoAwk) {
  Rng rng(1);
  const auto g = graph::grid(10, 10);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  const auto schedule = sim::wake_set({0, 99});
  const auto result = test::run_async_unit(inst, schedule, flooding_kernel());
  EXPECT_EQ(result.wakeup_span(),
            sim::schedule_awake_distance(g, schedule));
}

TEST(Flooding, WorksInLockStep) {
  const auto g = graph::grid(6, 6);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  const auto result =
      sim::run_sync(inst, sim::wake_single(0), 1, flooding_kernel());
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(result.wakeup_span(), graph::awake_distance(g, {0}));
}

TEST(Flooding, RobustToAdversarialDelays) {
  Rng rng(2);
  const auto g = graph::connected_gnp(80, 0.06, rng);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  const auto delays = sim::random_delay(10, 4242);
  const auto result = sim::run_async(inst, *delays, sim::wake_single(0), 1,
                                     flooding_kernel());
  EXPECT_TRUE(result.all_awake());
  // Time in units is still at most rho_awk (each hop <= tau = 1 unit).
  EXPECT_LE(result.metrics.time_units(),
            static_cast<double>(graph::awake_distance(g, {0})) + 1e-9);
}

TEST(Flooding, CongestCompatible) {
  const auto g = graph::complete(12);
  const auto inst =
      test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  EXPECT_NO_THROW(
      test::run_async_unit(inst, sim::wake_single(0), flooding_kernel()));
}

}  // namespace
}  // namespace rise::algo
