#include "lb/nih.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "algo/flooding.hpp"
#include "algo/ranked_dfs.hpp"
#include "lb/time_restricted.hpp"
#include "runner/thread_pool.hpp"
#include "sim/trace.hpp"
#include "test_util.hpp"

namespace rise::lb {
namespace {

/// A TTL generous enough for flooding to reach every node of the small
/// lower-bound families below.
constexpr std::uint32_t kFloodTtl = 1000;

/// An instance of a lower-bound family with its centers awake.
struct Scenario {
  LowerBoundFamily fam;
  sim::Instance inst;
  sim::WakeSchedule schedule;
};

Scenario kt0_scenario() {
  Rng rng(1);
  auto fam = make_kt0_family(12);
  auto inst = make_kt0_instance(fam, rng);
  auto schedule = fam.centers_awake();
  return {std::move(fam), std::move(inst), std::move(schedule)};
}

Scenario kt1_scenario(std::uint64_t seed) {
  Rng rng(seed);
  auto fam = make_kt1_family(3, 3).family;
  auto inst = make_kt1_instance(fam, rng);
  auto schedule = fam.centers_awake();
  return {std::move(fam), std::move(inst), std::move(schedule)};
}

/// Hash of a traced run (seed 5): async under unit delays, or lock-step,
/// round-parallel at `jobs` chunks on `executor` when one is given.
std::uint64_t run_hash(const Scenario& s, const sim::KernelRunner& kernel,
                       bool lock_step, std::uint32_t jobs = 1,
                       sim::ChunkExecutor* executor = nullptr) {
  std::ostringstream trace;
  sim::CsvTraceSink sink(trace);
  const auto delays = sim::unit_delay();
  sim::SyncKernelArgs args;
  args.instance = &s.inst;
  args.schedule = &s.schedule;
  args.seed = 5;
  args.trace = &sink;
  if (executor != nullptr) args.parallel = sim::SyncParallel{executor, jobs};
  const sim::RunResult r =  // before trace.str()
      lock_step ? kernel.run_sync(args)
                : sim::run_async(s.inst, *delays, s.schedule, 5, kernel, {},
                                 &sink);
  return test::fnv1a(test::digest(r, trace.str()));
}

TEST(NihReduction, FloodingSolvesNihOnKt0Family) {
  // Lemma 1 applied to flooding: every center learns the matching port.
  const Scenario s = kt0_scenario();
  const auto result = test::run_async_unit(
      s.inst, s.schedule, nih_kernel(algo::FloodingKernel{}), 5);
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(nih_correct_count(result, s.inst, s.fam), s.fam.n);
}

TEST(NihReduction, CostOverheadIsSmall) {
  // Lemma 1: +n messages, +1 time unit over the wake-up algorithm.
  Rng rng(2);
  const auto fam = make_kt0_family(10);
  const auto inst = make_kt0_instance(fam, rng);
  const auto base = test::run_async_unit(inst, fam.centers_awake(),
                                         algo::flooding_kernel(), 5);
  const auto wrapped = test::run_async_unit(
      inst, fam.centers_awake(), nih_kernel(algo::FloodingKernel{}), 5);
  EXPECT_LE(wrapped.metrics.messages, base.metrics.messages + fam.n);
  EXPECT_LE(wrapped.metrics.time_units(), base.metrics.time_units() + 1);
}

TEST(NihReduction, Kt1FamilyWithBroadcast) {
  // Centers broadcast (1 round); the reduction reports w_i's ID.
  const Scenario s = kt1_scenario(3);
  const auto result = test::run_async_unit(s.inst, s.schedule,
                                           nih_kernel(TtlFloodKernel(1)), 5);
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(nih_correct_count(result, s.inst, s.fam), s.fam.n);
  // Outputs are the *labels* of the crucial neighbors under KT1.
  const auto expected = nih_expected_outputs(s.inst, s.fam);
  for (graph::NodeId i = 0; i < s.fam.n; ++i) {
    EXPECT_EQ(expected[i], s.inst.label(s.fam.w_node(i)));
  }
}

TEST(NihReduction, RankedDfsSolvesNihToo) {
  const Scenario s = kt1_scenario(4);
  const auto result = test::run_async_unit(
      s.inst, s.schedule,
      nih_kernel(algo::RankedDfsKernel(nullptr, 48, /*discard_losers=*/true,
                                       /*elect=*/false)),
      5);
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(nih_correct_count(result, s.inst, s.fam), s.fam.n);
}

TEST(NihReduction, WorksInLockStep) {
  Rng rng(5);
  const auto fam = make_kt0_family(8);
  const auto inst = make_kt0_instance(fam, rng);
  const auto result = sim::run_sync(inst, fam.centers_awake(), 5,
                                    nih_kernel(algo::FloodingKernel{}));
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(nih_correct_count(result, inst, fam), fam.n);
}

TEST(NihReduction, IncompleteAlgorithmYieldsIncompleteOutputs) {
  // TTL-0 "algorithm" sends nothing: no center should produce an output.
  Rng rng(6);
  const auto fam = make_kt0_family(6);
  const auto inst = make_kt0_instance(fam, rng);
  const auto result = test::run_async_unit(inst, fam.centers_awake(),
                                           nih_kernel(TtlFloodKernel(0)), 5);
  EXPECT_EQ(nih_correct_count(result, inst, fam), 0u);
  EXPECT_FALSE(result.all_awake());
}

// Golden hashes of full traced runs, recorded when the reduction was a
// virtual wrapper around per-node objects (over flooding and RankedDFS:
// when those still had virtual Process twins). The kernel form must make
// the same sends in the same order; at a degree-1 node RankedDFS
// backtracks its token over the port the response goes out on, so its
// runs also pin the order of the response and the inner algorithm's sends.
TEST(NihReduction, MatchesGoldenRuns) {
  const Scenario kt0 = kt0_scenario();
  const auto ttl = nih_kernel(TtlFloodKernel(kFloodTtl));
  EXPECT_EQ(run_hash(kt0, ttl, false), 14616531926716572702ULL);
  EXPECT_EQ(run_hash(kt0, ttl, true), 12890834827635634189ULL);
  EXPECT_EQ(run_hash(kt1_scenario(3), nih_kernel(TtlFloodKernel(1)), false),
            8204589471784306025ULL);
  const auto flooding = nih_kernel(algo::FloodingKernel{});
  EXPECT_EQ(run_hash(kt0, flooding, false), 5610099406485059371ULL);
  EXPECT_EQ(run_hash(kt0, flooding, true), 18332111628634569344ULL);
  const Scenario kt1 = kt1_scenario(4);
  const auto dfs = nih_kernel(algo::RankedDfsKernel(
      nullptr, 48, /*discard_losers=*/true, /*elect=*/false));
  EXPECT_EQ(run_hash(kt1, dfs, false), 5455573552693239851ULL);
  EXPECT_EQ(run_hash(kt1, dfs, true), 9518739071491305531ULL);
}

// The wrapper's state slot is keyed by its own State type, never by the
// inner kernel's: a wrapped run holds two slots, and one workspace threaded
// through wrapped and bare runs of the same inner kernel must give every
// run its fresh-run digest.
TEST(NihReduction, DirtyWorkspaceKeepsWrapperAndInnerStateApart) {
  const Scenario kt0 = kt0_scenario();
  const auto delays = sim::unit_delay();
  const std::vector<sim::KernelRunner> kernels = {
      nih_kernel(TtlFloodKernel(kFloodTtl)), ttl_flood_kernel(kFloodTtl),
      nih_kernel(algo::FloodingKernel{}), nih_kernel(TtlFloodKernel(3)),
      ttl_flood_kernel(2)};
  sim::RunWorkspace workspace;
  sim::AsyncKernelArgs args;
  args.instance = &kt0.inst;
  args.delays = delays.get();
  args.schedule = &kt0.schedule;
  args.seed = 5;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      args.workspace = nullptr;
      const std::string fresh = test::digest(kernels[k].run_async(args));
      args.workspace = &workspace;
      EXPECT_EQ(test::digest(kernels[k].run_async(args)), fresh)
          << "kernel " << k << " pass " << pass;
      if (pass == 0 && k == 0) {
        ASSERT_EQ(workspace.kernel_states.size(), 2u);
        EXPECT_NE(workspace.kernel_states[0].type,
                  workspace.kernel_states[1].type);
      }
    }
  }
}

// Round-parallel chunks step NIH nodes on several threads at once (the
// scratch inbox is thread_local); lock-step runs at 1 and 4 jobs on a real
// pool must equal the golden serial run. Run under TSan in CI.
TEST(NihReduction, RoundParallelOnThreadPoolIsBitIdentical) {
  const Scenario kt0 = kt0_scenario();
  const auto kernel = nih_kernel(TtlFloodKernel(kFloodTtl));
  runner::ThreadPool pool(4);
  runner::PoolChunkExecutor executor(&pool);
  for (std::uint32_t jobs : {1u, 4u}) {
    EXPECT_EQ(run_hash(kt0, kernel, true, jobs, &executor),
              12890834827635634189ULL)
        << "trial_jobs=" << jobs;
  }
}

}  // namespace
}  // namespace rise::lb
