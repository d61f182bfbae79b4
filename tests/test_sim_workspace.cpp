// Workspace reuse is purely mechanical. A run that recycles a dirty
// RunWorkspace (left over from a *different* topology, algorithm and delay
// bound) must be bit-identical — same trace, same metrics, same digest — to
// a run on a freshly constructed engine. Pinned across both engines and the
// five algorithm families.
#include "sim/workspace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "check/scenario.hpp"
#include "sim/trace.hpp"

namespace rise {
namespace {

struct RunObservation {
  std::uint64_t digest = 0;
  std::string trace_csv;
};

/// Runs `spec` through the prepare/execute split with the given (possibly
/// dirty) workspace, capturing the full event trace.
RunObservation observe(const app::ExperimentSpec& spec,
                       sim::RunWorkspace* workspace) {
  const app::PreparedExperiment prepared = app::prepare_experiment(spec);
  std::ostringstream trace;
  sim::CsvTraceSink sink(trace);
  app::RunInstruments instruments;
  instruments.trace = &sink;
  app::ExperimentReport report =
      app::execute_prepared(prepared, spec, instruments, workspace);
  RunObservation obs;
  obs.digest = check::digest_run(report.result);
  obs.trace_csv = trace.str();
  if (workspace != nullptr) {
    workspace->recycle_result(std::move(report.result));
  }
  return obs;
}

app::ExperimentSpec make_spec(const std::string& graph,
                              const std::string& algorithm,
                              const std::string& delay, std::uint64_t seed) {
  app::ExperimentSpec spec;
  spec.graph = graph;
  spec.algorithm = algorithm;
  spec.schedule = "single";
  spec.delay = delay;
  spec.seed = seed;
  return spec;
}

/// Leaves `ws` thoroughly dirty: a larger topology, a payload-heavy
/// synchronous algorithm, and an asynchronous run with tau = 10000 all leave
/// sized vectors, channel state, pooled buffers and timing-wheel slots with
/// spare capacity behind.
void dirty_workspace(sim::RunWorkspace& ws) {
  observe(make_spec("cgnp:300:0.03", "fast_wakeup", "random:6", 99), &ws);
  observe(make_spec("cgnp:300:0.03", "ranked_dfs", "random:10000", 98), &ws);
}

struct Family {
  const char* name;
  const char* graph;
  const char* algorithm;
  const char* delay;
};

// The five algorithm families of the test plan: flooding, ranked DFS,
// fast wakeup, gossip (async) and the synchronous advice scheme fip06.
const Family kFamilies[] = {
    {"flooding", "gnp:120:0.05", "flooding", "random:4"},
    {"ranked_dfs", "cgnp:100:0.05", "ranked_dfs", "random:3"},
    {"fast_wakeup", "cgnp:100:0.05", "fast_wakeup", "unit"},
    {"gossip", "cycle:64", "gossip:4", "random:2"},
    {"fip06", "cgnp:100:0.05", "fip06", "unit"},
};

TEST(RunWorkspace, DirtyReuseIsBitIdenticalAcrossFamilies) {
  for (const Family& family : kFamilies) {
    SCOPED_TRACE(family.name);
    const app::ExperimentSpec spec =
        make_spec(family.graph, family.algorithm, family.delay, 42);

    const RunObservation fresh = observe(spec, nullptr);

    sim::RunWorkspace ws;
    dirty_workspace(ws);
    const RunObservation reused = observe(spec, &ws);

    EXPECT_EQ(fresh.digest, reused.digest);
    EXPECT_EQ(fresh.trace_csv, reused.trace_csv);
    EXPECT_FALSE(fresh.trace_csv.empty());
  }
}

TEST(RunWorkspace, RepeatedReuseStaysStable) {
  // Back-to-back trials on one workspace — the campaign steady state — must
  // keep producing the fresh-engine result, not drift after the first reuse.
  const app::ExperimentSpec spec =
      make_spec("gnp:150:0.04", "ranked_dfs", "random:5", 7);
  const RunObservation fresh = observe(spec, nullptr);
  sim::RunWorkspace ws;
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    const RunObservation reused = observe(spec, &ws);
    EXPECT_EQ(fresh.digest, reused.digest);
    EXPECT_EQ(fresh.trace_csv, reused.trace_csv);
  }
}

TEST(RunWorkspace, AlternatingEnginesShareOneWorkspace) {
  // A grid campaign interleaves synchronous and asynchronous trials on the
  // same worker; the workspace must serve both engines without crosstalk.
  const app::ExperimentSpec async_spec =
      make_spec("cgnp:100:0.05", "flooding", "random:4", 11);
  const app::ExperimentSpec sync_spec =
      make_spec("cgnp:100:0.05", "fip06", "unit", 11);
  const RunObservation async_fresh = observe(async_spec, nullptr);
  const RunObservation sync_fresh = observe(sync_spec, nullptr);

  sim::RunWorkspace ws;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    EXPECT_EQ(observe(async_spec, &ws).digest, async_fresh.digest);
    EXPECT_EQ(observe(sync_spec, &ws).digest, sync_fresh.digest);
  }
}

TEST(RunWorkspace, ShrinkingTopologyReuse) {
  // Reusing storage sized for a big run on a much smaller one exercises the
  // assign()/resize() shrink paths (stale tail entries must never leak in).
  sim::RunWorkspace ws;
  dirty_workspace(ws);
  const app::ExperimentSpec tiny = make_spec("path:8", "flooding", "unit", 3);
  const RunObservation fresh = observe(tiny, nullptr);
  const RunObservation reused = observe(tiny, &ws);
  EXPECT_EQ(fresh.digest, reused.digest);
  EXPECT_EQ(fresh.trace_csv, reused.trace_csv);
}

}  // namespace
}  // namespace rise
