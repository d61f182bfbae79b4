#include "algo/ranked_dfs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <tuple>
#include <vector>

#include "lb/lower_bound_graphs.hpp"
#include "lb/nih.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "test_util.hpp"

namespace rise::algo {
namespace {

using sim::Knowledge;

TEST(RankedDfs, WakesAllFromSingleSource) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto result =
        test::run_async_unit(inst, sim::wake_single(0), ranked_dfs_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(RankedDfs, WakesAllFromManySources) {
  Rng rng(1);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.3, rng);
    const auto result =
        test::run_async_unit(inst, schedule, ranked_dfs_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(RankedDfs, SurvivesStaggeredAdversary) {
  // The Sec. 3.1.1 stress: the adversary repeatedly wakes fresh batches
  // trying to dethrone the current maximum-rank token.
  Rng rng(2);
  const auto g = graph::connected_gnp(120, 0.05, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto schedule = sim::staggered_doubling(120, 30, 2.0, rng);
    const auto result =
        test::run_async_unit(inst, schedule, ranked_dfs_kernel(), seed);
    EXPECT_TRUE(result.all_awake());
  }
}

TEST(RankedDfs, SingleSourceSendsAtMost2NMessages) {
  // One token, DFS tree traversal: <= 2(n-1) forwards (Claim 1).
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto result =
        test::run_async_unit(inst, sim::wake_single(0), ranked_dfs_kernel());
    EXPECT_LE(result.metrics.messages,
              2ull * (g.num_nodes() - 1))
        << name;
  }
}

TEST(RankedDfs, PerNodeTokenForwardsAreLogarithmic) {
  // Claim 4: each node forwards O(log n) distinct tokens w.h.p.
  Rng rng(4);
  const auto g = graph::connected_gnp(200, 0.04, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  RankedDfsProbe probe;
  probe.tokens_forwarded.assign(200, 0);
  const auto result = test::run_async_unit(
      inst, sim::wake_all(200), ranked_dfs_kernel(&probe), 21);
  EXPECT_TRUE(result.all_awake());
  const double bound = 12.0 * std::log(200.0);
  for (std::uint32_t count : probe.tokens_forwarded) {
    EXPECT_LT(count, bound);
  }
}

TEST(RankedDfs, MessageWokenNodesDontStartTokens) {
  // With a single adversary-woken node, exactly one token exists; the total
  // number of distinct tokens forwarded equals the nodes on its path.
  const auto g = graph::path(20);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  RankedDfsProbe probe;
  probe.tokens_forwarded.assign(20, 0);
  test::run_async_unit(inst, sim::wake_single(0),
                       ranked_dfs_kernel(&probe), 5);
  for (std::uint32_t count : probe.tokens_forwarded) {
    EXPECT_LE(count, 1u);
  }
}

TEST(RankedDfs, RobustUnderRandomDelays) {
  Rng rng(5);
  const auto g = graph::connected_gnp(60, 0.1, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto delays = sim::random_delay(5, 777);
  const auto schedule = sim::staggered_doubling(60, 11, 1.7, rng);
  const auto result = sim::run_async(inst, *delays, schedule, 3,
                                     ranked_dfs_kernel());
  EXPECT_TRUE(result.all_awake());
}

TEST(RankedDfs, LasVegasAcrossSeeds) {
  // Las Vegas: always correct, whatever the coin flips.
  Rng rng(6);
  const auto g = graph::lollipop(15, 15);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto result = test::run_async_unit(
        inst, sim::wake_set({0, 5, 29}), ranked_dfs_kernel(), seed);
    EXPECT_TRUE(result.all_awake()) << "seed " << seed;
  }
}

/// Hash of a run's digest (wake times, outputs, every counter) and of its
/// full payload trace.
std::uint64_t pinned_hash(const sim::Instance& inst,
                          const sim::WakeSchedule& schedule,
                          const sim::DelayPolicy& delays,
                          const sim::KernelRunner& kernel) {
  test::PayloadHashSink sink;
  const sim::RunResult r =
      sim::run_async(inst, delays, schedule, 9, kernel, {}, &sink);
  return test::fnv1a(test::digest(r)) ^ sink.hash();
}

struct PinCase {
  const char* name;
  std::uint64_t unit_hash;
  std::uint64_t random4_hash;
  std::uint64_t random10000_hash;
};

/// Runs one kernel under unit delays, random:4 and random:10000 and
/// compares the hashes with the pins. Under random:10000 most deliveries sit
/// on the timing wheel's higher levels and move down by spills, so that row
/// pins the payload words across spills.
void expect_pins(const sim::Instance& inst, const sim::WakeSchedule& schedule,
                 const sim::KernelRunner& kernel, const PinCase& pin) {
  const auto unit = sim::unit_delay();
  const auto random4 = sim::random_delay(4, 31);
  const auto random10000 = sim::random_delay(10000, 31);
  EXPECT_EQ(pinned_hash(inst, schedule, *unit, kernel), pin.unit_hash)
      << pin.name << " under unit delays";
  EXPECT_EQ(pinned_hash(inst, schedule, *random4, kernel), pin.random4_hash)
      << pin.name << " under random:4 delays";
  EXPECT_EQ(pinned_hash(inst, schedule, *random10000, kernel),
            pin.random10000_hash)
      << pin.name << " under random:10000 delays";
}

// Pins for every RankedDFS variant the production token path serves:
// plain, no-discard (n <= 200: every token runs its whole DFS), leader
// election (token pass plus announce pass) and the Lemma-1 NIH wrapper on
// the KT0 lower-bound family. Taken before the token path read payloads in
// place; any change to the port order, payload contents, declared bits or
// counts moves them.
TEST(RankedDfs, VariantsMatchPinnedDigests) {
  Rng rng(41);
  const auto g = graph::connected_gnp(160, 0.05, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto schedule = sim::wake_random_subset(160, 0.2, rng);
  expect_pins(inst, schedule, ranked_dfs_kernel(),
              {"ranked_dfs", 13859408034965516363ULL,
               3476431432785323981ULL,
               17907568449153955503ULL});
  expect_pins(inst, schedule, ranked_dfs_no_discard_kernel(),
              {"ranked_dfs_nodiscard", 553880252236963355ULL,
               3637489183128385104ULL,
               6685544685086833932ULL});
  expect_pins(inst, schedule, ranked_dfs_leader_kernel(),
              {"leader", 15023369154955406801ULL, 5140475625347503611ULL,
               7026597152540253162ULL});

  // Degree ~30 and ~90: the second also takes the sorted path of
  // first_unvisited_port (ports past the first 64).
  Rng dense_rng(43);
  const auto mid = test::make_instance(
      graph::connected_gnp(100, 0.3, dense_rng), Knowledge::KT1);
  expect_pins(mid, sim::wake_random_subset(100, 0.3, dense_rng),
              ranked_dfs_leader_kernel(),
              {"leader on G(100, 0.3)", 10227087656477224248ULL,
               2304590511265392536ULL,
               3119543683248263233ULL});
  const auto dense = test::make_instance(
      graph::connected_gnp(150, 0.6, dense_rng), Knowledge::KT1);
  expect_pins(dense, sim::wake_random_subset(150, 0.3, dense_rng),
              ranked_dfs_leader_kernel(),
              {"leader on G(150, 0.6)", 2050884829266300148ULL,
               11283045690436770550ULL,
               5422752576013410518ULL});

  const auto fam = lb::make_kt0_family(20);
  const auto kt0 = test::make_instance(fam.graph, Knowledge::KT1);
  expect_pins(kt0, fam.centers_awake(),
              lb::nih_kernel(RankedDfsKernel(nullptr, 48,
                                             /*discard_losers=*/true,
                                             /*elect=*/false)),
              {"nih(ranked_dfs) on kt0family:20", 1205059354071492565ULL,
               12113977275044233235ULL,
               1345579771509487884ULL});
}

/// Node 0, woken by the adversary, sends a message of type `bad_type` with
/// payload `bad_words` over port 0 instead of launching a token; every other
/// hook is RankedDFS's own, so the receiver parses it on the production
/// path.
struct MalformedSender {
  RankedDfsKernel inner{nullptr, 48, /*discard_losers=*/true, /*elect=*/true};
  std::uint32_t bad_type = 0;
  std::vector<std::uint64_t> bad_words;

  void reset(const sim::Instance& instance, sim::RunWorkspace* workspace) {
    inner.reset(instance, workspace);
  }
  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause cause) {
    if (ctx.node() == 0 && cause == sim::WakeCause::kAdversary) {
      ctx.send(0, bad_type, 64, std::span<const std::uint64_t>(bad_words));
      return;
    }
    inner.on_wake(ctx, cause);
  }
  template <class Ctx>
  void on_message(Ctx& ctx, const sim::Incoming& in) {
    inner.on_message(ctx, in);
  }
};

// The token and announce paths read the visited list in place, so their
// size checks are all that keeps a malformed payload from an out-of-bounds
// read: each of these must throw CheckError.
TEST(RankedDfs, MalformedPayloadsThrow) {
  const auto inst = test::make_instance(graph::path(4), Knowledge::KT1);
  const std::tuple<const char*, std::uint32_t, std::vector<std::uint64_t>>
      cases[] = {
          {"token shorter than its header", kDfsToken, {7, 1}},
          {"token count above its length", kDfsToken, {7, 1, 5, 1}},
          {"token count below its length", kDfsToken, {7, 1, 1, 1, 2, 3}},
          {"token count near 2^64", kDfsToken, {7, 1, ~std::uint64_t{0}, 1}},
          {"announce with one word", kDfsLeader, {1}},
          {"announce with no words", kDfsLeader, {}},
          {"announce count above its length", kDfsLeader, {1, 4, 1}},
      };
  for (const auto& [name, type, words] : cases) {
    const sim::KernelRunner kernel = sim::make_kernel(
        MalformedSender{.bad_type = type, .bad_words = words});
    EXPECT_THROW(test::run_async_unit(inst, sim::wake_single(0), kernel),
                 CheckError)
        << name;
  }
}

}  // namespace
}  // namespace rise::algo
