// Sleeping-model families (src/algo/sleeping): output validity of smis
// (maximal independent set) and smatching (maximal matching) across a
// graph x schedule x seed sweep, awake accounting (every woken node pays at
// least one awake round; decided nodes' naps drop messages into
// metrics.sleep_dropped), and the ctx.sleep_until misuse guards.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algo/sleeping.hpp"
#include "sim/adversary.hpp"
#include "sim/kernel.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace rise {
namespace {

using sim::Knowledge;

sim::SyncRunLimits sleeping_limits() {
  sim::SyncRunLimits limits;
  limits.sleeping_model = true;
  return limits;
}

/// The woken set: nodes with a wake time. Never-woken nodes (adversary never
/// schedules them, no message reaches them) produce no output by design.
std::vector<bool> woken(const sim::RunResult& r) {
  std::vector<bool> w(r.wake_time.size());
  for (std::size_t u = 0; u < w.size(); ++u) {
    w[u] = r.wake_time[u] != sim::kNever;
  }
  return w;
}

/// MIS validity over the woken set: outputs are 0/1, no two adjacent 1s,
/// and every woken 0 has a woken neighbor in the set (maximality).
void expect_valid_mis(const graph::Graph& g, const sim::RunResult& r,
                      const std::string& what) {
  const std::vector<bool> awake = woken(r);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!awake[u]) {
      EXPECT_EQ(r.outputs[u], sim::kNoOutput) << what << " node " << u;
      continue;
    }
    ASSERT_TRUE(r.outputs[u] == 0 || r.outputs[u] == 1)
        << what << " node " << u << " output " << r.outputs[u];
    if (r.outputs[u] == 1) {
      for (graph::NodeId v : g.neighbors(u)) {
        EXPECT_FALSE(awake[v] && r.outputs[v] == 1)
            << what << ": adjacent MIS nodes " << u << ", " << v;
      }
    } else {
      bool dominated = false;
      for (graph::NodeId v : g.neighbors(u)) {
        dominated = dominated || (awake[v] && r.outputs[v] == 1);
      }
      EXPECT_TRUE(dominated)
          << what << ": node " << u << " is out of the MIS with no MIS "
          << "neighbor (not maximal)";
    }
  }
}

/// Matching validity over the woken set: a matched node's output is a woken
/// neighbor's label and the pairing is mutual; an unmatched node (output ==
/// own label) has no unmatched woken neighbor (maximality).
void expect_valid_matching(const graph::Graph& g, const sim::Instance& inst,
                           const sim::RunResult& r, const std::string& what) {
  const std::vector<bool> awake = woken(r);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!awake[u]) {
      EXPECT_EQ(r.outputs[u], sim::kNoOutput) << what << " node " << u;
      continue;
    }
    ASSERT_NE(r.outputs[u], sim::kNoOutput) << what << " node " << u;
    if (r.outputs[u] == inst.label(u)) continue;  // unmatched; checked below
    const graph::NodeId partner = inst.node_of_label(r.outputs[u]);
    bool adjacent = false;
    for (graph::NodeId v : g.neighbors(u)) adjacent = adjacent || v == partner;
    EXPECT_TRUE(adjacent) << what << ": node " << u << " matched to the "
                          << "non-neighbor " << partner;
    EXPECT_EQ(r.outputs[partner], inst.label(u))
        << what << ": nodes " << u << " and " << partner
        << " disagree on their matching";
  }
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!awake[u] || r.outputs[u] != inst.label(u)) continue;
    for (graph::NodeId v : g.neighbors(u)) {
      EXPECT_FALSE(awake[v] && r.outputs[v] == inst.label(v))
          << what << ": unmatched neighbors " << u << ", " << v
          << " (not maximal)";
    }
  }
}

std::vector<sim::WakeSchedule> schedules(graph::NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<sim::WakeSchedule> out;
  out.push_back(sim::wake_single(0));
  out.push_back(sim::wake_all(n));
  out.push_back(sim::staggered_doubling(n, 3, 2.0, rng));
  return out;
}

TEST(SleepingMis, ValidOnCatalogGraphsAcrossSchedulesAndSeeds) {
  std::uint64_t total_dropped = 0;
  std::uint64_t total_awake = 0;
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst =
        test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
    std::size_t schedule_id = 0;
    for (const auto& schedule : schedules(g.num_nodes(), 31)) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        const auto r = sim::run_sync(inst, schedule, seed,
                                     algo::sleeping_mis_kernel(),
                                     sleeping_limits());
        const std::string what = name + "/schedule" +
                                 std::to_string(schedule_id) + "/seed" +
                                 std::to_string(seed);
        EXPECT_TRUE(r.all_awake()) << what;
        expect_valid_mis(g, r, what);
        ASSERT_EQ(r.awake_rounds.size(), g.num_nodes()) << what;
        for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
          EXPECT_GE(r.awake_rounds[u], 1u) << what << " node " << u;
          total_awake += r.awake_rounds[u];
        }
        total_dropped += r.metrics.sleep_dropped;
        EXPECT_EQ(r.metrics.deliveries + r.metrics.sleep_dropped,
                  r.metrics.messages)
            << what;
      }
      ++schedule_id;
    }
  }
  EXPECT_GT(total_awake, 0u);
  // Decided nodes nap while late contenders keep sending, so the sweep must
  // exercise the drop path somewhere.
  EXPECT_GT(total_dropped, 0u);
}

TEST(SleepingMatching, ValidOnCatalogGraphsAcrossSchedulesAndSeeds) {
  std::uint64_t total_dropped = 0;
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst =
        test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
    std::size_t schedule_id = 0;
    for (const auto& schedule : schedules(g.num_nodes(), 47)) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        const auto r = sim::run_sync(inst, schedule, seed,
                                     algo::sleeping_matching_kernel(),
                                     sleeping_limits());
        const std::string what = name + "/schedule" +
                                 std::to_string(schedule_id) + "/seed" +
                                 std::to_string(seed);
        EXPECT_TRUE(r.all_awake()) << what;
        expect_valid_matching(g, inst, r, what);
        for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
          EXPECT_GE(r.awake_rounds[u], 1u) << what << " node " << u;
        }
        total_dropped += r.metrics.sleep_dropped;
        EXPECT_EQ(r.metrics.deliveries + r.metrics.sleep_dropped,
                  r.metrics.messages)
            << what;
      }
      ++schedule_id;
    }
  }
  EXPECT_GT(total_dropped, 0u);
}

// ---- sleep_until misuse guards -------------------------------------------

/// Calls sleep_until with a caller-chosen target policy on its wake round.
enum class Abuse { kPastTarget, kCurrentRound, kRedeclare, kLegal };

sim::KernelRunner abuser_kernel(Abuse abuse) {
  return test::lambda_kernel([abuse](auto& ctx, sim::WakeCause) {
    switch (abuse) {
      case Abuse::kPastTarget:
        ctx.sleep_until(0);
        break;
      case Abuse::kCurrentRound:
        ctx.sleep_until(ctx.now());
        break;
      case Abuse::kRedeclare:
        ctx.sleep_until(ctx.now() + 2);
        ctx.sleep_until(ctx.now() + 4);
        break;
      case Abuse::kLegal:
        ctx.sleep_until(ctx.now() + 2);
        break;
    }
  });
}

TEST(SleepUntil, RequiresTheSleepingModel) {
  const auto g = graph::path(4);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  // Synchronous engine without sleeping_model: the engine context refuses.
  EXPECT_THROW(sim::run_sync(inst, sim::wake_single(0), 1,
                             abuser_kernel(Abuse::kLegal)),
               CheckError);
  // Asynchronous engine: its context refuses.
  EXPECT_THROW(test::run_async_unit(inst, sim::wake_single(0),
                                    abuser_kernel(Abuse::kLegal)),
               CheckError);
}

TEST(SleepUntil, RejectsNonFutureTargetsAndRedeclaration) {
  const auto g = graph::path(4);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  for (auto abuse :
       {Abuse::kPastTarget, Abuse::kCurrentRound, Abuse::kRedeclare}) {
    EXPECT_THROW(sim::run_sync(inst, sim::wake_single(0), 1,
                               abuser_kernel(abuse), sleeping_limits()),
                 CheckError)
        << static_cast<int>(abuse);
  }
  // The legal declaration runs clean under the sleeping model.
  EXPECT_NO_THROW(sim::run_sync(inst, sim::wake_single(0), 1,
                                abuser_kernel(Abuse::kLegal),
                                sleeping_limits()));
}

// A declared-sleeping node is not stepped during its nap, resumes exactly at
// the declared round, and the messages that arrived mid-nap are dropped
// (send charged, no delivery).
sim::KernelRunner nap_observer_kernel() {
  return test::lambda_kernel(
      [](auto& ctx, sim::WakeCause) {
        if (ctx.my_label() == 1) {
          // The observer naps through rounds 1..3 and resumes at round 4.
          ctx.sleep_until(ctx.now() + 4);
        }
      },
      test::NoHook{},
      [resumed = false](auto& ctx, std::span<const sim::Incoming>) mutable {
        if (ctx.my_label() == 1) {
          // First step after the wake round is the nap's declared resume
          // round.
          if (ctx.now() > 0 && !resumed) {
            resumed = true;
            ctx.set_output(ctx.now());
          }
          return;
        }
        // The pinger sends to the observer every round for six rounds.
        if (ctx.local_round() <= 6) {
          ctx.send(0, 1, 1);
          ctx.request_tick();
        }
      });
}

TEST(SleepUntil, NapsDropMessagesAndResumeOnTime) {
  // Two nodes, both woken at round 0: node 0 (label 1 — random_labels off)
  // naps; node 1 pings it every round.
  const auto g = graph::path(2);
  sim::InstanceOptions opt;
  opt.knowledge = Knowledge::KT0;
  opt.random_labels = false;
  Rng rng(5);
  const auto inst = sim::Instance::create(g, opt, rng);
  const auto r =
      sim::run_sync(inst, sim::wake_all(2), 3,
                    nap_observer_kernel(),
                    sleeping_limits());
  // The observer's first post-wake step is exactly the declared round 4.
  EXPECT_EQ(r.outputs[0], 4u);
  // Pings are sent in rounds 0..5 and would deliver in rounds 1..6; the nap
  // covers rounds 1..3, so exactly three are dropped and three deliver.
  EXPECT_EQ(r.metrics.messages, 6u);
  EXPECT_EQ(r.metrics.sleep_dropped, 3u);
  EXPECT_EQ(r.metrics.deliveries + r.metrics.sleep_dropped,
            r.metrics.messages);
  // The nap pays nothing: the observer's awake rounds stay strictly below
  // the always-ticking pinger's.
  EXPECT_LT(r.awake_rounds[0], r.awake_rounds[1]);
}

}  // namespace
}  // namespace rise
