// Kernel differential suite.
//
// Every algorithm family and advice scheme runs as a flat kernel
// (sim/kernel.hpp). These tests run each one through app::execute_prepared
// and compare full-run digests — the complete CSV trace plus wake times,
// outputs, awake rounds and every metrics counter — across the execution
// axes that must not change a result:
//
//   * the event timeline under short and long delays and far wake-ups,
//     pinned against hashes recorded when long delays and far wake-ups
//     still went through a binary heap;
//   * lock-step replay (force_sync_engine) of the asynchronous families,
//     pinned against golden hashes, and async golden runs of the
//     lower-bound families (ttl, beta);
//   * dirty-workspace reuse: one RunWorkspace threaded through interleaved
//     runs of different families, which exercises the typeid-tagged
//     kernel-state slots;
//   * round-parallel stepping (RunInstruments::trial_jobs): bit-identical
//     to the serial round for every job count, every sync family, both the
//     serial chunk executor and a real thread pool, and dirty workspaces.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/flooding.hpp"
#include "app/spec.hpp"
#include "runner/thread_pool.hpp"
#include "sim/adversary.hpp"
#include "sim/parallel.hpp"
#include "sim/trace.hpp"
#include "sim/workspace.hpp"
#include "test_util.hpp"

namespace {

using namespace rise;

struct RunConfig {
  bool force_sync_engine = false;
  sim::RunWorkspace* workspace = nullptr;
  /// > 1 turns on round-parallel stepping (serial executor unless
  /// `trial_executor` is set, so the run stays threadless-deterministic).
  std::uint32_t trial_jobs = 1;
  sim::ChunkExecutor* trial_executor = nullptr;
};

std::string run_digest(const app::ExperimentSpec& spec,
                       const RunConfig& config) {
  std::ostringstream trace;
  sim::CsvTraceSink sink(trace);
  app::RunInstruments instruments;
  instruments.trace = &sink;
  instruments.force_sync_engine = config.force_sync_engine;
  instruments.trial_jobs = config.trial_jobs;
  instruments.trial_executor = config.trial_executor;
  const app::PreparedExperiment prepared = app::prepare_experiment(spec);
  const app::ExperimentReport report =
      app::execute_prepared(prepared, spec, instruments, config.workspace);
  return test::digest(report.result, trace.str());
}

app::ExperimentSpec make_spec(const std::string& algorithm,
                              std::uint64_t seed) {
  app::ExperimentSpec spec;
  spec.graph = "cgnp:48:0.12";
  spec.schedule = "staggered:3:2";
  spec.delay = "random:4";  // ignored by synchronous algorithms
  spec.algorithm = algorithm;
  spec.seed = seed;
  return spec;
}

const std::vector<std::string> kAsyncFamilies = {
    "flooding",   "ranked_dfs", "ranked_dfs_nodiscard",
    "ranked_dfs_congest", "leader"};

const std::vector<std::string> kAdviceSchemes = {"fip06", "sqrt", "cen",
                                                 "cen_chain", "spanner:2",
                                                 "cor2"};

const std::vector<std::string> kSyncFamilies = {"fast_wakeup", "gossip:3",
                                                "smis", "smatching"};

// Every async family under tau = 4, under tau = 10000, and under tau = 4
// with adversary wake-ups 2^32 ticks apart (up to 7 * 2^32), so the event
// timeline serves near deliveries, long delays and far wake-ups. The
// tau = 10000 hashes were recorded when tau above 4096 still ran on a
// separate binary-heap timeline, and the far-wake hashes while those wakes
// waited in an overflow heap, so they pin that the timing wheel reproduces
// both. The spanner:3 hashes were recorded while the greedy spanner still
// answered its distance questions with a one-sided BFS and the spanner
// advice was kept in a std::map.
TEST(SimKernels, AsyncFamiliesMatchPinnedDigestsNearAndFar) {
  struct Timing {
    const char* delay;
    const char* schedule;
  };
  const Timing timings[] = {{"random:4", "staggered:3:2"},
                            {"random:10000", "staggered:3:2"},
                            {"random:4", "staggered:4294967296:1.5"}};
  const std::uint64_t seeds[] = {3, 11};
  struct Pin {
    std::string algo;
    std::uint64_t hash[3][2];  // [timing][seed]
  };
  const std::vector<Pin> pins = {
      {"flooding",
       {{1279082298829789255ULL, 13649416799214425391ULL},
        {7221916029829063998ULL, 6952378835930050373ULL},
        {4313471375207356706ULL, 10155491359433726547ULL}}},
      {"ranked_dfs",
       {{5970325627444969794ULL, 17670700458849814639ULL},
        {11380967258681418586ULL, 6495377942108639534ULL},
        {8634887315318889922ULL, 11503271814787473264ULL}}},
      {"ranked_dfs_nodiscard",
       {{11951460081252192932ULL, 5204918358554851965ULL},
        {17825094914978373475ULL, 3667204922685601746ULL},
        {8634887315318889922ULL, 11503271814787473264ULL}}},
      {"ranked_dfs_congest",
       {{9016154703055516251ULL, 9689194181992756021ULL},
        {13226107767540610409ULL, 9258000460239129889ULL},
        {6482338992856753569ULL, 14281524996338108592ULL}}},
      {"leader",
       {{18128964363755312185ULL, 13032459338032769063ULL},
        {415129965960423322ULL, 10106198356723288790ULL},
        {349802047767524377ULL, 640591242381039956ULL}}},
      {"fip06",
       {{1531811837893939270ULL, 97934861190819948ULL},
        {5745340594990473103ULL, 14734535217672337273ULL},
        {7847881614688730404ULL, 3312323132478789712ULL}}},
      {"sqrt",
       {{12854716854359992803ULL, 10266174831112121572ULL},
        {16986734716369055052ULL, 6819789738852236661ULL},
        {15186000502721653225ULL, 1907045760375914810ULL}}},
      {"cen",
       {{438855345338490516ULL, 6971044181436403607ULL},
        {4721729379577796155ULL, 14412674343651550780ULL},
        {6375160534822740218ULL, 4717094710388908163ULL}}},
      {"cen_chain",
       {{5166658029800983803ULL, 4305474264467628962ULL},
        {9246535355746358977ULL, 7265057610624836676ULL},
        {9366241840787748309ULL, 3644913870245160258ULL}}},
      {"spanner:2",
       {{9362700423773033365ULL, 9222743899798378487ULL},
        {6616606967621854156ULL, 3695464763582303014ULL},
        {194854748799070876ULL, 3307770384193755518ULL}}},
      {"spanner:3",
       {{2577698546165568867ULL, 2497789326459196869ULL},
        {4597740135182754618ULL, 3941983446272693545ULL},
        {12599699532269821471ULL, 17196744172362737848ULL}}},
      {"cor2",
       {{14668566446717030854ULL, 12323644374899499163ULL},
        {15885244278425829859ULL, 16288530791986105949ULL},
        {16126081554913124748ULL, 34833477257121486ULL}}},
      {"ttl:4",
       {{11135941027958982018ULL, 11873999878000300385ULL},
        {12871037934402146720ULL, 13687235573606962970ULL},
        {13070719497092111612ULL, 17448847984813912306ULL}}},
  };
  for (const Pin& pin : pins) {
    for (std::size_t d = 0; d < 3; ++d) {
      for (std::size_t k = 0; k < 2; ++k) {
        auto spec = make_spec(pin.algo, seeds[k]);
        spec.delay = timings[d].delay;
        spec.schedule = timings[d].schedule;
        EXPECT_EQ(test::fnv1a(run_digest(spec, {})), pin.hash[d][k])
            << pin.algo << " delay=" << spec.delay
            << " schedule=" << spec.schedule << " seed=" << seeds[k];
      }
    }
  }
}

// The fuzzer's unit-delay differential runs message-driven algorithms on
// the lock-step engine (sim::deliver_round hands each inbox message to
// on_message). The hashes were recorded when every family still had a
// virtual-Process twin and both forms produced them bit for bit; the ttl
// hashes were recorded when ttl was itself a virtual Process, and the
// spanner:3 hash as for the table above.
TEST(SimKernels, ForcedLockStepMatchesGoldenRuns) {
  const std::vector<std::pair<std::string, std::uint64_t>> golden = {
      {"flooding", 9875078830687610121ULL},
      {"ranked_dfs", 4666114655123724348ULL},
      {"ranked_dfs_nodiscard", 6113298133637683748ULL},
      {"ranked_dfs_congest", 6348697980694115698ULL},
      {"leader", 3721789062903976029ULL},
      {"fip06", 6372170501698066195ULL},
      {"sqrt", 2194545028833333039ULL},
      {"cen", 12895423200238453292ULL},
      {"cen_chain", 12791031915888397902ULL},
      {"spanner:2", 2419723305393972931ULL},
      {"spanner:3", 17343380455648374552ULL},
      {"cor2", 4239677879883399196ULL},
      {"ttl:1", 5184304350535612784ULL},
      {"ttl:4", 3039942570511192185ULL},
  };
  for (const auto& [algo, hash] : golden) {
    auto spec = make_spec(algo, 7);
    spec.delay = "unit";
    RunConfig lock_step;
    lock_step.force_sync_engine = true;
    EXPECT_EQ(test::fnv1a(run_digest(spec, lock_step)), hash) << algo;
  }
}

// The async twin of the table above for ttl, and β-probing (beta:2) on its
// own family with every center awake, async and lock-step: recorded when
// ttl and β-probing were virtual Processes.
TEST(SimKernels, LowerBoundFamiliesMatchGoldenRuns) {
  const std::vector<std::pair<std::string, std::uint64_t>> golden = {
      {"ttl:1", 13946353687471664324ULL},
      {"ttl:4", 17312107704268673144ULL},
  };
  for (const auto& [algo, hash] : golden) {
    EXPECT_EQ(test::fnv1a(run_digest(make_spec(algo, 7), RunConfig{})), hash)
        << algo;
  }
  auto spec = make_spec("beta:2", 7);
  spec.graph = "kt0family:8";
  spec.schedule = "set:0,1,2,3,4,5,6,7";
  EXPECT_EQ(test::fnv1a(run_digest(spec, RunConfig{})),
            9363955847347464969ULL);
  spec.delay = "unit";
  RunConfig lock_step;
  lock_step.force_sync_engine = true;
  EXPECT_EQ(test::fnv1a(run_digest(spec, lock_step)), 5132872076694567448ULL);
}

// One workspace threaded through interleaved runs of different families,
// more of them than there are kernel-state slots: the typeid-tagged slots
// must swap types safely, and every dirty-workspace digest must equal its
// fresh-run counterpart.
TEST(SimKernels, DirtyWorkspaceReuseIsBitIdentical) {
  const std::vector<std::string> steps = {
      "flooding", "ranked_dfs", "ttl:4",    "ranked_dfs", "cen",
      "ttl:4",    "flooding",   "fast_wakeup", "gossip:3", "ttl:4",
      // Sleeping-model kernels recycle their typeid-tagged state slots and
      // the engine's asleep_until vector across dirty reuse.
      "smis",     "smatching",  "ttl:4",    "smis",     "flooding",
  };
  sim::RunWorkspace workspace;
  for (const auto& algo : steps) {
    const auto spec = make_spec(algo, 9);
    RunConfig dirty;
    dirty.workspace = &workspace;
    EXPECT_EQ(run_digest(spec, dirty), run_digest(spec, RunConfig{}))
        << algo;
  }
}

// The round-parallel matrix: every synchronous family (including the
// sleeping-model pair, whose nap registrations and sleep-dropped accounting
// go through the deferred reduction) at trial_jobs in {1, 2, 5} must
// produce the digest of the sequential run — full CSV trace included, so
// the reduction's event interleaving is pinned, not just the final metrics.
TEST(SimKernels, RoundParallelSteppingIsBitIdentical) {
  for (const auto& algo : kSyncFamilies) {
    for (std::uint64_t seed : {3u, 11u}) {
      const auto spec = make_spec(algo, seed);
      const std::string sequential = run_digest(spec, RunConfig{});
      for (std::uint32_t jobs : {1u, 2u, 5u}) {
        RunConfig parallel;
        parallel.trial_jobs = jobs;
        EXPECT_EQ(sequential, run_digest(spec, parallel))
            << algo << " seed=" << seed << " trial_jobs=" << jobs;
      }
    }
  }
}

// Message-driven families forced onto the lock-step engine (the fuzzer's
// unit-delay differential) must also be trial_jobs-invariant: this is the
// path where a wake can race a delivery in the same round.
TEST(SimKernels, RoundParallelForcedSyncIsBitIdentical) {
  for (const auto& algo :
       {std::string("flooding"), std::string("ranked_dfs"),
        std::string("cen"), std::string("cor2")}) {
    auto spec = make_spec(algo, 7);
    spec.delay = "unit";
    RunConfig sequential;
    sequential.force_sync_engine = true;
    const std::string expect = run_digest(spec, sequential);
    for (std::uint32_t jobs : {2u, 5u}) {
      RunConfig parallel = sequential;
      parallel.trial_jobs = jobs;
      EXPECT_EQ(expect, run_digest(spec, parallel))
          << algo << " trial_jobs=" << jobs;
    }
  }
}

// Same matrix on a real thread pool: chunk order must come from the
// reduction, never from which worker finished first. Also covers the
// nested-use fallback — the pool here has fewer threads than chunks.
TEST(SimKernels, RoundParallelOnThreadPoolIsBitIdentical) {
  runner::ThreadPool pool(2);
  runner::PoolChunkExecutor executor(&pool);
  for (const auto& algo : kSyncFamilies) {
    const auto spec = make_spec(algo, 11);
    const std::string sequential = run_digest(spec, RunConfig{});
    RunConfig parallel;
    parallel.trial_jobs = 5;
    parallel.trial_executor = &executor;
    EXPECT_EQ(sequential, run_digest(spec, parallel)) << algo;
  }
}

// Dirty-workspace reuse on the parallel path: chunk outboxes and the flat
// wake schedule are recycled pools, and switching trial_jobs between runs
// re-shapes them; every dirty digest must equal a fresh sequential run.
TEST(SimKernels, RoundParallelDirtyWorkspaceIsBitIdentical) {
  struct Step {
    std::string algo;
    std::uint32_t trial_jobs;
  };
  const std::vector<Step> steps = {
      {"fast_wakeup", 2}, {"smis", 5},     {"fast_wakeup", 1},
      {"gossip:3", 5},    {"smatching", 2}, {"smis", 1},
      {"smatching", 5},   {"fast_wakeup", 5},
  };
  sim::RunWorkspace workspace;
  for (const auto& step : steps) {
    const auto spec = make_spec(step.algo, 9);
    RunConfig dirty;
    dirty.trial_jobs = step.trial_jobs;
    dirty.workspace = &workspace;
    EXPECT_EQ(run_digest(spec, RunConfig{}), run_digest(spec, dirty))
        << step.algo << " trial_jobs=" << step.trial_jobs;
  }
}

// Chunk and bucket boundaries fall mid-word in the candidate bitmap and
// leave some buckets empty when n is not a multiple of the job count (or
// of 64): every sync family must still match the sequential digest.
TEST(SimKernels, RoundParallelUnevenSplitsAreBitIdentical) {
  for (const auto& algo : kSyncFamilies) {
    for (const char* graph : {"cgnp:101:0.06", "cgnp:1001:0.008"}) {
      auto spec = make_spec(algo, 5);
      spec.graph = graph;
      const std::string sequential = run_digest(spec, RunConfig{});
      for (std::uint32_t jobs : {2u, 3u, 7u}) {
        RunConfig parallel;
        parallel.trial_jobs = jobs;
        EXPECT_EQ(sequential, run_digest(spec, parallel))
            << algo << " " << graph << " trial_jobs=" << jobs;
      }
    }
  }
}

// One workspace through sleeping → lock-step flooding → sleeping runs at
// changing job counts: the flat inbox, candidate bitmap, timer wheel and the
// kernels' recycled node states must carry nothing from one run into the
// next.
TEST(SimKernels, SleepingFloodingSleepingDirtyWorkspaceIsBitIdentical) {
  struct Step {
    std::string algo;
    std::uint32_t trial_jobs;
  };
  const std::vector<Step> steps = {
      {"smis", 1},     {"flooding", 3}, {"smatching", 7}, {"flooding", 1},
      {"smis", 3},     {"smatching", 1}, {"flooding", 7}, {"smis", 2},
  };
  sim::RunWorkspace workspace;
  for (const auto& step : steps) {
    auto spec = make_spec(step.algo, 13);
    spec.graph = "cgnp:101:0.06";
    spec.delay = "unit";
    RunConfig fresh;
    fresh.force_sync_engine = true;
    RunConfig dirty = fresh;
    dirty.trial_jobs = step.trial_jobs;
    dirty.workspace = &workspace;
    EXPECT_EQ(run_digest(spec, fresh), run_digest(spec, dirty))
        << step.algo << " trial_jobs=" << step.trial_jobs;
  }
}

TEST(SimKernels, KernelIsWiredForEveryMainFamily) {
  for (const auto& algo : kAsyncFamilies) {
    EXPECT_TRUE(static_cast<bool>(
        app::prepare_experiment(make_spec(algo, 1)).kernel))
        << algo;
  }
  for (const auto& algo : kAdviceSchemes) {
    EXPECT_TRUE(static_cast<bool>(
        app::prepare_experiment(make_spec(algo, 1)).kernel))
        << algo;
  }
  for (const auto& algo : kSyncFamilies) {
    EXPECT_TRUE(static_cast<bool>(
        app::prepare_experiment(make_spec(algo, 1)).kernel))
        << algo;
  }
}

// ---- one kernel contract ------------------------------------------------

// The engines' node contexts are concrete types: no vtable sits between a
// kernel and the engine.
static_assert(!std::is_polymorphic_v<
              sim::internal::AsyncRunnerContext<algo::FloodingKernel>>);
static_assert(!std::is_polymorphic_v<
              sim::internal::SyncRunnerContext<algo::FloodingKernel>>);

/// A message-driven kernel with no on_round. Every node folds the ports of
/// the messages it receives, in arrival order, into its output, and relays
/// its first message to a random subset of its other ports, so both the
/// per-node message order and the RNG draws show in the run.
struct RelayOnce {
  struct State {
    bool relayed = false;
    std::uint64_t folded = 0;
  };
  std::vector<State> states;

  void reset(const sim::Instance& instance, sim::RunWorkspace*) {
    states.assign(instance.num_nodes(), State{});
  }

  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause cause) {
    if (cause == sim::WakeCause::kAdversary) {
      ctx.broadcast(1, 64, ctx.my_label());
    }
  }

  template <class Ctx>
  void on_message(Ctx& ctx, const sim::Incoming& in) {
    State& self = states[ctx.node()];
    self.folded = self.folded * 31 + in.port + 1;
    ctx.set_output(self.folded);
    if (self.relayed) return;
    self.relayed = true;
    for (sim::Port p = 0; p < ctx.degree(); ++p) {
      if (p != in.port && ctx.rng().chance(0.5)) {
        ctx.send(p, 2, 64, in.words()[0]);
      }
    }
  }
};

/// The same kernel with an explicit on_round that forwards the inbox.
template <class K>
struct ExplicitLoop : K {
  template <class Ctx>
  void on_round(Ctx& ctx, std::span<const sim::Incoming> inbox) {
    for (const sim::Incoming& in : inbox) this->on_message(ctx, in);
  }
};

std::string lock_step_digest(const sim::KernelRunner& kernel,
                             const sim::Instance& instance,
                             const sim::WakeSchedule& schedule) {
  std::ostringstream trace;
  sim::CsvTraceSink sink(trace);
  const sim::RunResult result =
      sim::run_sync(instance, schedule, 5, kernel, {}, &sink);
  return test::digest(result, trace.str());
}

// A kernel without on_round runs under lock-step exactly as with an
// explicit forwarding loop: the engine hands each inbox message to
// on_message, in order.
TEST(SimKernels, OnRoundIsOptionalUnderLockStep) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const sim::Instance inst = test::make_instance(g, sim::Knowledge::KT1);
    Rng rng(17);
    const sim::WakeSchedule schedule =
        sim::staggered_doubling(g.num_nodes(), 2, 2.0, rng);
    EXPECT_EQ(lock_step_digest(sim::make_kernel(RelayOnce{}), inst, schedule),
              lock_step_digest(sim::make_kernel(ExplicitLoop<RelayOnce>{}),
                               inst, schedule))
        << name;
  }
}

}  // namespace
