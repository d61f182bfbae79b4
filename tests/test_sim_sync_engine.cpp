#include "sim/sync_engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "algo/flooding.hpp"
#include "graph/generators.hpp"
#include "sim/parallel.hpp"
#include "sim/workspace.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace rise::sim {
namespace {

TEST(SyncEngine, FloodingAdvancesOneHopPerRound) {
  const auto g = graph::path(6);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto result =
      run_sync(inst, wake_single(0), 1, algo::flooding_factory());
  EXPECT_TRUE(result.all_awake());
  for (graph::NodeId u = 0; u < 6; ++u) {
    EXPECT_EQ(result.wake_time[u], u);  // delivered at start of round u
  }
}

TEST(SyncEngine, LocalRoundCounterStartsAtOne) {
  const auto g = graph::path(3);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::vector<std::uint64_t> observed;
  const ProcessFactory probe = [&observed](graph::NodeId) {
    class P final : public Process {
     public:
      explicit P(std::vector<std::uint64_t>* obs) : obs_(obs) {}
      void on_wake(Context&, WakeCause) override {}
      void on_message(Context&, const Incoming&) override {}
      void on_round(Context& ctx, std::span<const Incoming>) override {
        obs_->push_back(ctx.local_round());
        if (ctx.local_round() < 3) ctx.request_tick();
      }
      std::vector<std::uint64_t>* obs_;
    };
    return std::make_unique<P>(&observed);
  };
  run_sync(inst, wake_single(1), 1, probe);
  ASSERT_EQ(observed.size(), 3u);
  EXPECT_EQ(observed[0], 1u);
  EXPECT_EQ(observed[1], 2u);
  EXPECT_EQ(observed[2], 3u);
}

TEST(SyncEngine, NoGlobalClockForLateWakers) {
  // A node woken at round 50 sees local_round 1.
  const auto g = graph::Graph::from_edges(2, {{0, 1}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::vector<std::pair<graph::NodeId, std::uint64_t>> observed;
  const ProcessFactory probe = [&observed](graph::NodeId node) {
    class P final : public Process {
     public:
      P(std::vector<std::pair<graph::NodeId, std::uint64_t>>* obs,
        graph::NodeId node)
          : obs_(obs), node_(node) {}
      void on_wake(Context&, WakeCause) override {}
      void on_message(Context&, const Incoming&) override {}
      void on_round(Context& ctx, std::span<const Incoming>) override {
        obs_->push_back({node_, ctx.local_round()});
      }
      std::vector<std::pair<graph::NodeId, std::uint64_t>>* obs_;
      graph::NodeId node_;
    };
    return std::make_unique<P>(&observed, node);
  };
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {50, 1}};
  run_sync(inst, schedule, 1, probe);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], (std::pair<graph::NodeId, std::uint64_t>{0, 1}));
  EXPECT_EQ(observed[1], (std::pair<graph::NodeId, std::uint64_t>{1, 1}));
}

TEST(SyncEngine, MessagesDeliveredNextRound) {
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto result =
      run_sync(inst, wake_single(0), 1, algo::flooding_factory());
  EXPECT_EQ(result.wake_time[1], 1u);
  // Node 1's own broadcast echoes back to node 0 in round 2.
  EXPECT_EQ(result.metrics.last_delivery, 2u);
}

TEST(SyncEngine, InboxBatchesAllSendersOfPreviousRound) {
  const auto g = graph::star(5);  // hub 0
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::size_t hub_batch = 0;
  const ProcessFactory probe = [&hub_batch](graph::NodeId node) {
    class P final : public Process {
     public:
      P(std::size_t* batch, bool is_hub) : batch_(batch), is_hub_(is_hub) {}
      void on_wake(Context& ctx, WakeCause cause) override {
        if (!is_hub_ && cause == WakeCause::kAdversary) {
          ctx.send(0, make_message(1, {}, 8));
        }
      }
      void on_message(Context&, const Incoming&) override {}
      void on_round(Context&, std::span<const Incoming> inbox) override {
        if (is_hub_) *batch_ = inbox.size();
      }
      std::size_t* batch_;
      bool is_hub_;
    };
    return std::make_unique<P>(&hub_batch, node == 0);
  };
  run_sync(inst, wake_set({1, 2, 3, 4}), 1, probe);
  EXPECT_EQ(hub_batch, 4u);
}

TEST(SyncEngine, QuiescesWithoutTicksOrMessages) {
  const auto g = graph::path(4);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto result =
      run_sync(inst, wake_single(0), 1, algo::flooding_factory());
  EXPECT_LE(result.metrics.rounds, 5u);  // 3 hops + final echo round
}

TEST(SyncEngine, FastForwardsIdleGaps) {
  const auto g = graph::Graph::from_edges(2, {{0, 1}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {1'000'000, 1}};
  SyncRunLimits limits;
  limits.max_rounds = 2'000'000;  // would time out without fast-forward
  const auto result =
      run_sync(inst, schedule, 1, algo::flooding_factory(), limits);
  EXPECT_EQ(result.wake_time[1], 1u);  // woken by flooding long before
}

TEST(SyncEngine, MaxRoundsEnforced) {
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const ProcessFactory forever = [](graph::NodeId) {
    class Forever final : public Process {
      void on_wake(Context&, WakeCause) override {}
      void on_message(Context&, const Incoming&) override {}
      void on_round(Context& ctx, std::span<const Incoming>) override {
        ctx.request_tick();
      }
    };
    return std::make_unique<Forever>();
  };
  SyncRunLimits limits;
  limits.max_rounds = 100;
  EXPECT_THROW(run_sync(inst, wake_single(0), 1, forever, limits), CheckError);
}

TEST(SyncEngine, DeterministicAcrossRuns) {
  Rng rng(5);
  const auto g = graph::connected_gnp(30, 0.15, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto r1 = run_sync(inst, wake_single(7), 9, algo::flooding_factory());
  const auto r2 = run_sync(inst, wake_single(7), 9, algo::flooding_factory());
  EXPECT_EQ(r1.wake_time, r2.wake_time);
  EXPECT_EQ(r1.metrics.messages, r2.metrics.messages);
}

// ---- the flat data path: nap ring, candidate bitmap, dirty reuse --------

/// One step of a scripted node: the round it ran in and its inbox size.
using Steps = std::vector<std::pair<Time, std::size_t>>;

/// A Process whose on_round records the step into `log[node]` and then
/// runs `script(ctx, step_index)`.
using Script = std::function<void(Context&, std::size_t)>;

ProcessFactory scripted(std::map<graph::NodeId, Steps>* log,
                        std::map<graph::NodeId, Script> scripts) {
  return [log, scripts](graph::NodeId node) {
    class P final : public Process {
     public:
      P(Steps* steps, Script script)
          : steps_(steps), script_(std::move(script)) {}
      void on_wake(Context&, WakeCause) override {}
      void on_message(Context&, const Incoming&) override {}
      void on_round(Context& ctx, std::span<const Incoming> inbox) override {
        steps_->emplace_back(ctx.now(), inbox.size());
        if (script_) script_(ctx, steps_->size() - 1);
      }
      Steps* steps_;
      Script script_;
    };
    const auto it = scripts.find(node);
    return std::make_unique<P>(&(*log)[node],
                               it == scripts.end() ? Script{} : it->second);
  };
}

/// Runs `factory` serially and round-parallel at 3 jobs (which must agree
/// on everything the runs record) and returns the serial result.
RunResult run_both_paths(const Instance& inst, const WakeSchedule& schedule,
                         const std::function<ProcessFactory(
                             std::map<graph::NodeId, Steps>*)>& make,
                         const SyncRunLimits& limits,
                         std::map<graph::NodeId, Steps>* log) {
  SyncEngine serial(inst, schedule, 1);
  RunResult result = serial.run(make(log), limits);
  std::map<graph::NodeId, Steps> par_log;
  SerialChunkExecutor executor;
  SyncEngine parallel(inst, schedule, 1);
  parallel.set_parallel(SyncParallel{&executor, 3});
  const RunResult par = parallel.run(make(&par_log), limits);
  EXPECT_EQ(*log, par_log);
  EXPECT_EQ(result.awake_rounds, par.awake_rounds);
  EXPECT_EQ(result.metrics.rounds, par.metrics.rounds);
  EXPECT_EQ(result.metrics.events, par.metrics.events);
  EXPECT_EQ(result.metrics.sleep_dropped, par.metrics.sleep_dropped);
  return result;
}

SyncRunLimits sleeping_limits() {
  SyncRunLimits limits;
  limits.sleeping_model = true;
  return limits;
}

// Naps shorter than the nap ring, just past it, and far beyond it (the
// overflow heap) each end on exactly their target round, and the idle
// rounds between them are fast-forwarded.
TEST(SyncEngineDataPath, NapsBeyondTheRingWakeOnTheirTargetRound) {
  const auto g = graph::Graph::from_edges(4, {});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const Time naps[] = {1000, 65, 64, 3};
  const auto make = [&naps](std::map<graph::NodeId, Steps>* log) {
    std::map<graph::NodeId, Script> scripts;
    for (graph::NodeId u = 0; u < 4; ++u) {
      scripts[u] = [nap = naps[u]](Context& ctx, std::size_t step) {
        if (step == 0) ctx.sleep_until(ctx.now() + nap);
      };
    }
    return scripted(log, scripts);
  };
  std::map<graph::NodeId, Steps> log;
  const RunResult r =
      run_both_paths(inst, wake_all(4), make, sleeping_limits(), &log);
  for (graph::NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(log[u], (Steps{{0, 0}, {naps[u], 0}})) << "node " << u;
    EXPECT_EQ(r.awake_rounds[u], 2u);
  }
  EXPECT_EQ(r.metrics.rounds, 1001u);
  EXPECT_EQ(r.metrics.events, 8u);
}

// A node that asks for a tick twice and also receives a message is a single
// candidate: it is stepped once, with its whole inbox.
TEST(SyncEngineDataPath, DuplicateTicksAndMessagesStepANodeOnce) {
  const auto g = graph::Graph::from_edges(3, {{0, 1}, {1, 2}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto make = [](std::map<graph::NodeId, Steps>* log) {
    std::map<graph::NodeId, Script> scripts;
    scripts[0] = [](Context& ctx, std::size_t step) {
      if (step == 0) ctx.send(0, make_message(1, {}, 8));
    };
    scripts[1] = [](Context& ctx, std::size_t step) {
      if (step == 0) {
        ctx.request_tick();
        ctx.request_tick();
      }
    };
    scripts[2] = [](Context& ctx, std::size_t step) {
      if (step == 0) ctx.send(0, make_message(2, {}, 8));
    };
    return scripted(log, scripts);
  };
  for (const bool sleeping : {false, true}) {
    SyncRunLimits limits;
    limits.sleeping_model = sleeping;
    std::map<graph::NodeId, Steps> log;
    const RunResult r = run_both_paths(inst, wake_all(3), make, limits, &log);
    EXPECT_EQ(log[1], (Steps{{0, 0}, {1, 2}})) << "sleeping=" << sleeping;
    EXPECT_EQ(r.awake_rounds[1], 2u);
    EXPECT_EQ(r.metrics.events, 4u);
    EXPECT_EQ(r.metrics.deliveries, 2u);
  }
}

// Declared-asleep nodes receive no events: an adversary wake, a tick
// requested together with the nap, and a message that arrive mid-nap all
// evaporate (the message is counted as sleep-dropped).
TEST(SyncEngineDataPath, EventsAimedAtANappingNodeEvaporate) {
  const auto g = graph::Graph::from_edges(2, {{0, 1}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto make = [](std::map<graph::NodeId, Steps>* log) {
    std::map<graph::NodeId, Script> scripts;
    scripts[0] = [](Context& ctx, std::size_t step) {
      if (step == 0) {
        ctx.request_tick();
        ctx.sleep_until(10);
      }
    };
    scripts[1] = [](Context& ctx, std::size_t step) {
      if (step == 0) ctx.send(0, make_message(1, {}, 8));
    };
    return scripted(log, scripts);
  };
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {5, 0}, {3, 1}};
  std::map<graph::NodeId, Steps> log;
  const RunResult r =
      run_both_paths(inst, schedule, make, sleeping_limits(), &log);
  EXPECT_EQ(log[0], (Steps{{0, 0}, {10, 0}}));
  EXPECT_EQ(log[1], (Steps{{3, 0}}));
  EXPECT_EQ(r.awake_rounds[0], 2u);
  EXPECT_EQ(r.metrics.sleep_dropped, 1u);
  EXPECT_EQ(r.metrics.deliveries, 0u);
}

// A run aborted mid-flight (messages in transit, naps pending, candidates
// marked) leaves its buffers in the workspace; the next run must not see
// any of it.
TEST(SyncEngineDataPath, AbortedRunLeavesNoTraceInTheWorkspace) {
  Rng rng(3);
  const auto g = graph::connected_gnp(150, 0.05, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const ProcessFactory chatter = [](graph::NodeId) {
    class Chatter final : public Process {
      void on_wake(Context&, WakeCause) override {}
      void on_message(Context&, const Incoming&) override {}
      void on_round(Context& ctx, std::span<const Incoming>) override {
        ctx.broadcast(make_message(1, {ctx.now()}, 72));
        switch (ctx.my_label() % 3) {
          case 0:
            ctx.sleep_until(ctx.now() + 3);  // within the nap ring
            break;
          case 1:
            ctx.sleep_until(ctx.now() + 70);  // in the overflow heap
            break;
          default:
            ctx.request_tick();
        }
      }
    };
    return std::make_unique<Chatter>();
  };
  SyncRunLimits aborting = sleeping_limits();
  aborting.max_rounds = 7;
  const RunResult fresh =
      run_sync(inst, wake_all(150), 9, algo::flooding_factory());
  RunWorkspace workspace;
  for (std::uint32_t jobs : {1u, 3u}) {
    SerialChunkExecutor executor;
    SyncEngine aborted(inst, wake_all(150), 9);
    aborted.set_workspace(&workspace);
    aborted.set_parallel(SyncParallel{&executor, jobs});
    EXPECT_THROW(aborted.run(chatter, aborting), CheckError);
    SyncEngine reuse(inst, wake_all(150), 9);
    reuse.set_workspace(&workspace);
    const RunResult again = reuse.run(algo::flooding_factory());
    EXPECT_EQ(again.wake_time, fresh.wake_time) << "jobs=" << jobs;
    EXPECT_EQ(again.metrics.messages, fresh.metrics.messages);
    EXPECT_EQ(again.metrics.deliveries, fresh.metrics.deliveries);
    EXPECT_EQ(again.metrics.rounds, fresh.metrics.rounds);
    EXPECT_EQ(again.metrics.received_per_node,
              fresh.metrics.received_per_node);
  }
}

}  // namespace
}  // namespace rise::sim
