#include "advice/fip06.hpp"

#include "advice/tree_advice_common.hpp"

#include <gtest/gtest.h>

#include "support/check.hpp"
#include "test_util.hpp"

namespace rise::advice {
namespace {

using sim::Knowledge;

sim::Instance advised_instance(const graph::Graph& g, std::uint64_t seed = 1) {
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST,
                                  seed);
  apply_oracle(inst, *fip06_oracle());
  return inst;
}

TEST(Fip06, WakesAllOnCatalog) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto result =
        test::run_async_unit(inst, sim::wake_single(0), fip06_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(Fip06, WakesAllFromArbitrarySources) {
  Rng rng(2);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.2, rng);
    const auto result =
        test::run_async_unit(inst, schedule, fip06_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(Fip06, PortSetEncodingRoundTrip) {
  for (std::uint32_t degree : {1u, 2u, 7u, 100u}) {
    std::vector<sim::Port> ports;
    for (std::uint32_t p = 0; p < degree; p += 3) ports.push_back(p);
    BitWriter w;
    encode_port_set(w, ports, degree);
    const BitString bits = w.take();
    BitReader r(bits);
    std::vector<sim::Port> decoded;
    for_each_port(r, degree, [&](sim::Port p) { decoded.push_back(p); });
    EXPECT_EQ(decoded, ports) << "degree " << degree;
    EXPECT_TRUE(r.exhausted()) << "degree " << degree;
  }
}

// A list whose gamma count asks for more ports than the advice has bits
// left (here 2^60 ports) is a CheckError before any port is visited, not an
// attempt to hold them all.
TEST(Fip06, PortListLongerThanItsBitsThrows) {
  for (const std::uint64_t count : {std::uint64_t{1} << 60, std::uint64_t{3}}) {
    BitWriter w;
    w.write_bit(false);  // list format
    w.write_gamma(count);
    w.write_bits(0b101, 4);  // two 2-bit ports: fewer than `count`
    const BitString bits = w.take();
    BitReader r(bits);
    std::size_t visited = 0;
    EXPECT_THROW(for_each_port(r, 4, [&](sim::Port) { ++visited; }),
                 CheckError)
        << "count " << count;
    EXPECT_EQ(visited, 0u);
  }
}

TEST(Fip06, CongestSafe) {
  // All messages are O(1) bits.
  const auto g = graph::star(300);
  const auto inst = advised_instance(g);
  EXPECT_NO_THROW(
      test::run_async_unit(inst, sim::wake_single(5), fip06_kernel()));
}

TEST(Fip06, RobustUnderAdversarialDelays) {
  Rng rng(5);
  const auto g = graph::connected_gnp(70, 0.07, rng);
  const auto inst = advised_instance(g);
  const auto delays = sim::random_delay(9, 31337);
  const auto result = sim::run_async(inst, *delays, sim::wake_set({3, 60}), 2,
                                     fip06_kernel());
  EXPECT_TRUE(result.all_awake());
}

}  // namespace
}  // namespace rise::advice
