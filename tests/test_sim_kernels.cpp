// Kernel-vs-Process differential suite (PR 7).
//
// Every algorithm family that ships a flat kernel (sim/kernel.hpp) must be
// *bit-identical* to its virtual-Process twin: same RNG draws, same message
// encodings, same trace, same metrics. These tests pin that equivalence by
// running each family through app::execute_prepared twice — once on the
// kernel path (the default) and once with RunInstruments::
// use_virtual_processes — and comparing full-run digests: the complete CSV
// trace plus wake times, outputs, and every metrics counter.
//
// Coverage axes: every algorithm family (including the sleeping-model
// smis/smatching pair, whose digests fold in per-node awake rounds and
// sleep-dropped counts) and all four advice schemes,
// both engines (native plus force_sync_engine for the asynchronous ones),
// both event-queue backends, and dirty-workspace reuse — a single
// RunWorkspace threaded through interleaved kernel/process runs of
// *different* families, which exercises the typeid-tagged kernel-state slot
// and the recycled Process vector side by side.
// A second differential rides the same digest machinery: round-parallel
// stepping (RunInstruments::trial_jobs, PR 10) must be bit-identical to the
// sequential lock-step path for every job count, every sync family, both
// the serial chunk executor and a real thread pool, and dirty workspaces.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "runner/thread_pool.hpp"
#include "sim/parallel.hpp"
#include "sim/trace.hpp"
#include "sim/workspace.hpp"

namespace {

using namespace rise;

/// Serializes everything observable about a run (same notion of
/// "bit-identical" as test_engine_golden_traces).
std::string digest(const sim::RunResult& r, const std::string& trace) {
  std::ostringstream os;
  os << trace << "|";
  for (auto t : r.wake_time) os << t << ",";
  os << "|";
  for (auto o : r.outputs) os << o << ",";
  os << "|" << r.metrics.messages << "," << r.metrics.bits << ","
     << r.metrics.deliveries << "," << r.metrics.events << ","
     << r.metrics.first_wake << "," << r.metrics.last_wake << ","
     << r.metrics.last_delivery << "," << r.metrics.rounds << ","
     << r.metrics.tau;
  for (auto v : r.metrics.sent_per_node) os << "," << v;
  for (auto v : r.metrics.received_per_node) os << "," << v;
  // Awake accounting is part of "everything observable": the kernel and
  // Process paths must charge identical awake rounds and sleep drops.
  os << "|" << r.metrics.sleep_dropped;
  for (auto v : r.awake_rounds) os << "," << v;
  return os.str();
}

struct RunConfig {
  bool use_virtual_processes = false;
  sim::EventQueue::Mode queue_mode = sim::EventQueue::Mode::kAuto;
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
  instruments.queue_mode = config.queue_mode;
  instruments.force_sync_engine = config.force_sync_engine;
  instruments.use_virtual_processes = config.use_virtual_processes;
  instruments.trial_jobs = config.trial_jobs;
  instruments.trial_executor = config.trial_executor;
  const app::PreparedExperiment prepared = app::prepare_experiment(spec);
  const app::ExperimentReport report =
      app::execute_prepared(prepared, spec, instruments, config.workspace);
  return digest(report.result, trace.str());
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

TEST(SimKernels, AsyncFamiliesMatchVirtualPath) {
  for (const auto& algo : kAsyncFamilies) {
    for (std::uint64_t seed : {3u, 11u}) {
      const auto spec = make_spec(algo, seed);
      for (auto mode : {sim::EventQueue::Mode::kBuckets,
                        sim::EventQueue::Mode::kHeap}) {
        RunConfig kernel{/*use_virtual_processes=*/false, mode};
        RunConfig process{/*use_virtual_processes=*/true, mode};
        EXPECT_EQ(run_digest(spec, kernel), run_digest(spec, process))
            << algo << " seed=" << seed
            << " mode=" << static_cast<int>(mode);
      }
    }
  }
}

TEST(SimKernels, AdviceSchemesMatchVirtualPath) {
  for (const auto& algo : kAdviceSchemes) {
    const auto spec = make_spec(algo, 5);
    for (auto mode :
         {sim::EventQueue::Mode::kBuckets, sim::EventQueue::Mode::kHeap}) {
      RunConfig kernel{/*use_virtual_processes=*/false, mode};
      RunConfig process{/*use_virtual_processes=*/true, mode};
      EXPECT_EQ(run_digest(spec, kernel), run_digest(spec, process))
          << algo << " mode=" << static_cast<int>(mode);
    }
  }
}

TEST(SimKernels, SyncFamiliesMatchVirtualPath) {
  for (const auto& algo : kSyncFamilies) {
    for (std::uint64_t seed : {3u, 11u}) {
      const auto spec = make_spec(algo, seed);
      RunConfig kernel;
      RunConfig process;
      process.use_virtual_processes = true;
      EXPECT_EQ(run_digest(spec, kernel), run_digest(spec, process))
          << algo << " seed=" << seed;
    }
  }
}

// The fuzzer's unit-delay differential runs message-driven algorithms on
// the lock-step engine; the kernel path must agree there too (this is the
// kernels' on_round forwarding).
TEST(SimKernels, ForcedSyncEngineMatchesVirtualPath) {
  for (const auto& algo :
       {std::string("flooding"), std::string("cen"), std::string("cor2")}) {
    auto spec = make_spec(algo, 7);
    spec.delay = "unit";
    RunConfig kernel;
    kernel.force_sync_engine = true;
    RunConfig process = kernel;
    process.use_virtual_processes = true;
    EXPECT_EQ(run_digest(spec, kernel), run_digest(spec, process)) << algo;
  }
}

// One workspace threaded through interleaved runs of different families and
// both execution paths: the typeid-tagged kernel-state slot must swap types
// safely, recycled Process objects must survive interleaved kernel runs,
// and every dirty-workspace digest must equal its fresh-run counterpart.
TEST(SimKernels, DirtyWorkspaceReuseIsBitIdentical) {
  struct Step {
    std::string algo;
    bool use_virtual_processes;
  };
  const std::vector<Step> steps = {
      {"flooding", false},  {"ranked_dfs", false}, {"flooding", true},
      {"ranked_dfs", true}, {"cen", false},        {"flooding", false},
      {"fast_wakeup", false}, {"gossip:3", false}, {"flooding", false},
      // Sleeping-model kernels recycle their typeid-tagged state slots and
      // the engine's asleep_until vector across dirty reuse.
      {"smis", false},      {"smatching", false},  {"smis", true},
      {"smatching", true},  {"flooding", false},   {"smis", false},
  };
  sim::RunWorkspace workspace;
  for (const auto& step : steps) {
    const auto spec = make_spec(step.algo, 9);
    RunConfig dirty;
    dirty.use_virtual_processes = step.use_virtual_processes;
    dirty.workspace = &workspace;
    RunConfig fresh;
    fresh.use_virtual_processes = step.use_virtual_processes;
    EXPECT_EQ(run_digest(spec, dirty), run_digest(spec, fresh))
        << step.algo << " virtual=" << step.use_virtual_processes;
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
// changing job counts: the flat inbox, candidate bitmap, nap ring and the
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

// Families without a kernel (diagnostic lb algorithms) must fall back to
// the Process path transparently.
TEST(SimKernels, KernellessFamiliesStillRun) {
  auto spec = make_spec("ttl:4", 3);
  const app::PreparedExperiment prepared = app::prepare_experiment(spec);
  EXPECT_FALSE(static_cast<bool>(prepared.kernel));
  RunConfig plain;
  EXPECT_FALSE(run_digest(spec, plain).empty());
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

}  // namespace
