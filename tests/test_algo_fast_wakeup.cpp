#include "algo/fast_wakeup.hpp"

#include <gtest/gtest.h>

#include "app/spec.hpp"
#include "obs/probe.hpp"
#include "runner/thread_pool.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"

namespace rise::algo {
namespace {

using sim::Knowledge;

/// One fast_wakeup run of `spec` through app::execute_prepared, hashed over
/// its digest and its full payload trace. `root_probability` >= 0 replaces
/// the prepared kernel with fast_wakeup_kernel(root_probability).
std::uint64_t pinned_hash(const app::ExperimentSpec& spec,
                          double root_probability, std::uint32_t trial_jobs,
                          sim::ChunkExecutor* executor) {
  app::PreparedExperiment prepared = app::prepare_experiment(spec);
  if (root_probability >= 0.0) {
    prepared.kernel = fast_wakeup_kernel(root_probability);
  }
  test::PayloadHashSink sink;
  app::RunInstruments instruments;
  instruments.trace = &sink;
  instruments.trial_jobs = trial_jobs;
  instruments.trial_executor = executor;
  const app::ExperimentReport report =
      app::execute_prepared(prepared, spec, instruments);
  return test::fnv1a(test::digest(report.result)) ^ sink.hash();
}

// Pins every message's order, payload and declared bits, with wake times
// and counters. The cgnp:120:0.2 row forces every awake node to root a
// tree, so several level-1 nodes share level-2 candidates and S3 groups
// span many level-1 nodes. Recorded while the kernel still kept its tree
// state in std::maps and std::sets; each row must also match when rounds
// are stepped in 3 chunks on a real thread pool.
TEST(FastWakeup, MatchesPinnedDigests) {
  struct Pin {
    const char* graph;
    const char* schedule;
    double root_probability;
    std::uint64_t hash[2];  // seeds 3 and 11
  };
  const Pin pins[] = {
      {"cgnp:300:0.03", "random:0.2", -1.0,
       {12244438480272992253ULL, 15849056827827449984ULL}},
      {"cgnp:48:0.12", "staggered:3:2", -1.0,
       {16283299560063114448ULL, 15765004451063600802ULL}},
      {"cgnp:120:0.2", "all", 1.0,
       {14530250298633737664ULL, 10438545107234717568ULL}},
      {"grid:6x6", "single", -1.0,
       {2740696899206146906ULL, 16398184737285648846ULL}},
  };
  const std::uint64_t seeds[] = {3, 11};
  runner::ThreadPool pool(3);
  runner::PoolChunkExecutor executor(&pool);
  for (const Pin& pin : pins) {
    for (int i = 0; i < 2; ++i) {
      app::ExperimentSpec spec;
      spec.graph = pin.graph;
      spec.schedule = pin.schedule;
      spec.algorithm = "fast_wakeup";
      spec.seed = seeds[i];
      EXPECT_EQ(pinned_hash(spec, pin.root_probability, 1, nullptr),
                pin.hash[i])
          << pin.graph << " " << pin.schedule << " seed " << seeds[i];
      EXPECT_EQ(pinned_hash(spec, pin.root_probability, 3, &executor),
                pin.hash[i])
          << pin.graph << " " << pin.schedule << " seed " << seeds[i]
          << " trial_jobs 3";
    }
  }
}

TEST(FastWakeup, WakesAllOnCatalog) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto result =
        sim::run_sync(inst, sim::wake_single(0), 7, fast_wakeup_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(FastWakeup, AllAwakeInstantlyStillQuiesces) {
  const auto g = graph::complete(30);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto result =
      sim::run_sync(inst, sim::wake_all(30), 5, fast_wakeup_kernel());
  EXPECT_TRUE(result.all_awake());
  EXPECT_LT(result.metrics.rounds, 40u);
}

TEST(FastWakeup, ForcedRootBuildsThreeLevelTree) {
  // With root probability 1, node 0's BFS reaches distance 3 without any
  // activate! broadcast.
  const auto g = graph::path(6);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  obs::Probe probe;
  const auto result = sim::run_sync(inst, sim::wake_single(0), 1,
                                    fast_wakeup_kernel(1.0), {}, nullptr,
                                    &probe);
  EXPECT_GE(probe.counter("fw.roots_sampled"), 1u);
  // Nodes 1..3 are levels 1..3 of node 0's tree; node 3 becomes active and
  // continues the wake-up, so all nodes wake eventually.
  EXPECT_TRUE(result.all_awake());
}

TEST(FastWakeup, NoRootsFallsBackToBroadcastWaves) {
  // With root probability 0, progress happens purely via activate!
  // broadcasts every 10 rounds.
  const auto g = graph::path(5);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  obs::Probe probe;
  const auto result = sim::run_sync(inst, sim::wake_single(0), 1,
                                    fast_wakeup_kernel(0.0), {}, nullptr,
                                    &probe);
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(probe.counter("fw.roots_sampled"), 0u);
  EXPECT_GE(probe.counter("fw.activate_broadcasts"), 4u);
  // One wave per hop: 10 rounds each.
  EXPECT_LE(result.wakeup_span(), 10ull * 4);
}

TEST(FastWakeup, LateAdversaryWakesDoNotBreakInProgressTrees) {
  Rng rng(4);
  const auto g = graph::grid(8, 8);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  sim::WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {3, 30}, {7, 55}, {12, 63}};
  const auto result = sim::run_sync(inst, schedule, 2, fast_wakeup_kernel());
  EXPECT_TRUE(result.all_awake());
}

TEST(FastWakeup, DeterministicGivenSeed) {
  Rng rng(5);
  const auto g = graph::connected_gnp(60, 0.1, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto r1 =
      sim::run_sync(inst, sim::wake_single(0), 123, fast_wakeup_kernel());
  const auto r2 =
      sim::run_sync(inst, sim::wake_single(0), 123, fast_wakeup_kernel());
  EXPECT_EQ(r1.wake_time, r2.wake_time);
  EXPECT_EQ(r1.metrics.messages, r2.metrics.messages);
}

}  // namespace
}  // namespace rise::algo
