#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
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

TEST(SyncRun, FloodingAdvancesOneHopPerRound) {
  const auto g = graph::path(6);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto result =
      run_sync(inst, wake_single(0), 1, algo::flooding_kernel());
  EXPECT_TRUE(result.all_awake());
  for (graph::NodeId u = 0; u < 6; ++u) {
    EXPECT_EQ(result.wake_time[u], u);  // delivered at start of round u
  }
}

TEST(SyncRun, LocalRoundCounterStartsAtOne) {
  const auto g = graph::path(3);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::vector<std::uint64_t> observed;
  const KernelRunner probe = test::lambda_kernel(
      test::NoHook{}, test::NoHook{},
      [&observed](auto& ctx, std::span<const Incoming>) {
        observed.push_back(ctx.local_round());
        if (ctx.local_round() < 3) ctx.request_tick();
      });
  run_sync(inst, wake_single(1), 1, probe);
  ASSERT_EQ(observed.size(), 3u);
  EXPECT_EQ(observed[0], 1u);
  EXPECT_EQ(observed[1], 2u);
  EXPECT_EQ(observed[2], 3u);
}

TEST(SyncRun, NoGlobalClockForLateWakers) {
  // A node woken at round 50 sees local_round 1.
  const auto g = graph::Graph::from_edges(2, {{0, 1}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::vector<std::pair<graph::NodeId, std::uint64_t>> observed;
  const KernelRunner probe = test::lambda_kernel(
      test::NoHook{}, test::NoHook{},
      [&observed](auto& ctx, std::span<const Incoming>) {
        observed.push_back({ctx.node(), ctx.local_round()});
      });
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {50, 1}};
  run_sync(inst, schedule, 1, probe);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], (std::pair<graph::NodeId, std::uint64_t>{0, 1}));
  EXPECT_EQ(observed[1], (std::pair<graph::NodeId, std::uint64_t>{1, 1}));
}

TEST(SyncRun, MessagesDeliveredNextRound) {
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto result =
      run_sync(inst, wake_single(0), 1, algo::flooding_kernel());
  EXPECT_EQ(result.wake_time[1], 1u);
  // Node 1's own broadcast echoes back to node 0 in round 2.
  EXPECT_EQ(result.metrics.last_delivery, 2u);
}

TEST(SyncRun, InboxBatchesAllSendersOfPreviousRound) {
  const auto g = graph::star(5);  // hub 0
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::size_t hub_batch = 0;
  const KernelRunner probe = test::lambda_kernel(
      [](auto& ctx, WakeCause cause) {
        if (ctx.node() != 0 && cause == WakeCause::kAdversary) {
          ctx.send(0, 1, 8);
        }
      },
      test::NoHook{},
      [&hub_batch](auto& ctx, std::span<const Incoming> inbox) {
        if (ctx.node() == 0) hub_batch = inbox.size();
      });
  run_sync(inst, wake_set({1, 2, 3, 4}), 1, probe);
  EXPECT_EQ(hub_batch, 4u);
}

TEST(SyncRun, QuiescesWithoutTicksOrMessages) {
  const auto g = graph::path(4);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto result =
      run_sync(inst, wake_single(0), 1, algo::flooding_kernel());
  EXPECT_LE(result.metrics.rounds, 5u);  // 3 hops + final echo round
}

TEST(SyncRun, FastForwardsIdleGaps) {
  const auto g = graph::Graph::from_edges(2, {{0, 1}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {1'000'000, 1}};
  SyncRunLimits limits;
  limits.max_rounds = 2'000'000;  // would time out without fast-forward
  const auto result =
      run_sync(inst, schedule, 1, algo::flooding_kernel(), limits);
  EXPECT_EQ(result.wake_time[1], 1u);  // woken by flooding long before
}

TEST(SyncRun, MaxRoundsEnforced) {
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const KernelRunner forever = test::lambda_kernel(
      test::NoHook{}, test::NoHook{},
      [](auto& ctx, std::span<const Incoming>) { ctx.request_tick(); });
  SyncRunLimits limits;
  limits.max_rounds = 100;
  EXPECT_THROW(run_sync(inst, wake_single(0), 1, forever, limits), CheckError);
}

TEST(SyncRun, DeterministicAcrossRuns) {
  Rng rng(5);
  const auto g = graph::connected_gnp(30, 0.15, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto r1 = run_sync(inst, wake_single(7), 9, algo::flooding_kernel());
  const auto r2 = run_sync(inst, wake_single(7), 9, algo::flooding_kernel());
  EXPECT_EQ(r1.wake_time, r2.wake_time);
  EXPECT_EQ(r1.metrics.messages, r2.metrics.messages);
}

// ---- the flat data path: timers, candidate bitmap, dirty reuse ----------

/// One step of a scripted node: the round it ran in and its inbox size.
using Steps = std::vector<std::pair<Time, std::size_t>>;

using Log = std::map<graph::NodeId, Steps>;

/// A kernel whose on_round records every step into `log[node]` and runs
/// `script(node, ctx, k)` on a node's k-th step (k = 1 first).
template <class Script>
KernelRunner scripted(Log* log, Script script) {
  return test::lambda_kernel(
      test::NoHook{}, test::NoHook{},
      [log, script](auto& ctx, std::span<const Incoming> inbox) {
        Steps& steps = (*log)[ctx.node()];
        steps.emplace_back(ctx.now(), inbox.size());
        script(ctx.node(), ctx, steps.size());
      });
}

/// Runs the scripted kernel serially and round-parallel at 3 jobs (which
/// must agree on everything the runs record) and returns the serial result.
template <class Script>
RunResult run_script_both_paths(const Instance& inst,
                                const WakeSchedule& schedule,
                                const Script& script,
                                const SyncRunLimits& limits, Log* log) {
  SyncKernelArgs args;
  args.instance = &inst;
  args.schedule = &schedule;
  args.seed = 1;
  args.limits = limits;
  RunResult result = scripted(log, script).run_sync(args);
  Log par_log;
  SerialChunkExecutor executor;
  args.parallel = SyncParallel{&executor, 3};
  const RunResult par = scripted(&par_log, script).run_sync(args);
  EXPECT_EQ(*log, par_log);
  EXPECT_EQ(result.awake_rounds, par.awake_rounds);
  EXPECT_EQ(result.metrics.rounds, par.metrics.rounds);
  EXPECT_EQ(result.metrics.events, par.metrics.events);
  EXPECT_EQ(result.metrics.sleep_dropped, par.metrics.sleep_dropped);
  return result;
}

/// run_script_both_paths with `first(node, ctx)` run on a node's first step
/// only.
template <class FirstStep>
RunResult run_both_paths(const Instance& inst, const WakeSchedule& schedule,
                         const FirstStep& first, const SyncRunLimits& limits,
                         Log* log) {
  const auto script = [first](graph::NodeId u, auto& ctx, std::size_t k) {
    if (k == 1) first(u, ctx);
  };
  return run_script_both_paths(inst, schedule, script, limits, log);
}

SyncRunLimits sleeping_limits() {
  SyncRunLimits limits;
  limits.sleeping_model = true;
  return limits;
}

// Short naps, naps that end on or cross the timing wheel's 256- and
// 65536-round boundaries (so they wait on levels 1 and 2 and spill down),
// and naps that start after such a boundary, each end on exactly their
// target round, and the idle rounds between them are fast-forwarded.
TEST(SyncDataPath, NapsWakeOnTheirTargetRoundAcrossWheelLevels) {
  struct Nap {
    Time start;
    Time length;
  };
  const Nap naps[] = {{0, 1000},    {0, 65},      {0, 64},   {0, 3},
                      {0, 256},     {255, 1},     {250, 10}, {0, 65536},
                      {65530, 10},  {65536, 300}, {1, 70000}};
  const auto k = static_cast<graph::NodeId>(std::size(naps));
  const auto g = graph::Graph::from_edges(k, {});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  WakeSchedule schedule;
  for (graph::NodeId u = 0; u < k; ++u) {
    schedule.wakes.emplace_back(naps[u].start, u);
  }
  const auto first = [&naps](graph::NodeId u, auto& ctx) {
    ctx.sleep_until(ctx.now() + naps[u].length);
  };
  Log log;
  const RunResult r =
      run_both_paths(inst, schedule, first, sleeping_limits(), &log);
  Time last = 0;
  for (graph::NodeId u = 0; u < k; ++u) {
    const Time end = naps[u].start + naps[u].length;
    EXPECT_EQ(log[u], (Steps{{naps[u].start, 0}, {end, 0}})) << "node " << u;
    EXPECT_EQ(r.awake_rounds[u], 2u);
    last = std::max(last, end);
  }
  EXPECT_EQ(r.metrics.rounds, last + 1);
  EXPECT_EQ(r.metrics.events, 2u * k);
}

// Node 0 naps from round 0 to 300 while node 1 ticks through rounds 1 and 2
// and then naps to round 5. The wheel's next tick is 300 during rounds 1 and
// 2, so a round start that peeked at the front by moving the cursor there
// would reject node 1's nap as a push before the cursor.
TEST(SyncDataPath, ShortNapRegisteredWhileALongerOneIsPending) {
  const auto g = graph::Graph::from_edges(2, {});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto script = [](graph::NodeId u, auto& ctx, std::size_t k) {
    if (u == 0) {
      if (k == 1) ctx.sleep_until(300);
    } else if (ctx.now() < 2) {
      ctx.request_tick();
    } else if (ctx.now() == 2) {
      ctx.sleep_until(5);
    }
  };
  Log log;
  const RunResult r = run_script_both_paths(inst, wake_all(2), script,
                                            sleeping_limits(), &log);
  EXPECT_EQ(log[0], (Steps{{0, 0}, {300, 0}}));
  EXPECT_EQ(log[1], (Steps{{0, 0}, {1, 0}, {2, 0}, {5, 0}}));
  EXPECT_EQ(r.metrics.rounds, 301u);
}

// A wake-up or a nap end beyond max_rounds is reported as such, whether it
// lies in the next wheel window or 2^62 rounds away, instead of running or
// fast-forwarding past the limit.
TEST(SyncDataPath, TimersBeyondMaxRoundsThrow) {
  const auto g = graph::Graph::from_edges(2, {});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  SyncRunLimits limits = sleeping_limits();
  limits.max_rounds = 100;
  const auto error_text = [&](const WakeSchedule& schedule, Time nap) {
    Log log;
    const KernelRunner kernel =
        scripted(&log, [nap](graph::NodeId, auto& ctx, std::size_t k) {
          if (k == 1 && nap != 0) ctx.sleep_until(ctx.now() + nap);
        });
    try {
      run_sync(inst, schedule, 1, kernel, limits);
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const Time far : {Time{101}, Time{300}, Time{1} << 62}) {
    SCOPED_TRACE(far);
    WakeSchedule late;
    late.wakes = {{0, 0}, {far, 1}};
    EXPECT_NE(error_text(late, 0).find("exceeded max_rounds"),
              std::string::npos);
    EXPECT_NE(error_text(wake_all(2), far).find("exceeded max_rounds"),
              std::string::npos);
  }
}

// A node that asks for a tick twice and also receives a message is a single
// candidate: it is stepped once, with its whole inbox.
TEST(SyncDataPath, DuplicateTicksAndMessagesStepANodeOnce) {
  const auto g = graph::Graph::from_edges(3, {{0, 1}, {1, 2}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto first = [](graph::NodeId u, auto& ctx) {
    if (u == 1) {
      ctx.request_tick();
      ctx.request_tick();
    } else {
      ctx.send(0, u == 0 ? 1 : 2, 8);
    }
  };
  for (const bool sleeping : {false, true}) {
    SyncRunLimits limits;
    limits.sleeping_model = sleeping;
    Log log;
    const RunResult r = run_both_paths(inst, wake_all(3), first, limits, &log);
    EXPECT_EQ(log[1], (Steps{{0, 0}, {1, 2}})) << "sleeping=" << sleeping;
    EXPECT_EQ(r.awake_rounds[1], 2u);
    EXPECT_EQ(r.metrics.events, 4u);
    EXPECT_EQ(r.metrics.deliveries, 2u);
  }
}

// Declared-asleep nodes receive no events: an adversary wake, a tick
// requested together with the nap, and a message that arrive mid-nap all
// evaporate (the message is counted as sleep-dropped).
TEST(SyncDataPath, EventsAimedAtANappingNodeEvaporate) {
  const auto g = graph::Graph::from_edges(2, {{0, 1}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto first = [](graph::NodeId u, auto& ctx) {
    if (u == 0) {
      ctx.request_tick();
      ctx.sleep_until(10);
    } else {
      ctx.send(0, 1, 8);
    }
  };
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {5, 0}, {3, 1}};
  Log log;
  const RunResult r =
      run_both_paths(inst, schedule, first, sleeping_limits(), &log);
  EXPECT_EQ(log[0], (Steps{{0, 0}, {10, 0}}));
  EXPECT_EQ(log[1], (Steps{{3, 0}}));
  EXPECT_EQ(r.awake_rounds[0], 2u);
  EXPECT_EQ(r.metrics.sleep_dropped, 1u);
  EXPECT_EQ(r.metrics.deliveries, 0u);
}

// A run aborted mid-flight (messages in transit, naps pending, candidates
// marked) leaves its buffers in the workspace; the next run must not see
// any of it.
TEST(SyncDataPath, AbortedRunLeavesNoTraceInTheWorkspace) {
  Rng rng(3);
  const auto g = graph::connected_gnp(150, 0.05, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const KernelRunner chatter = test::lambda_kernel(
      test::NoHook{}, test::NoHook{},
      [](auto& ctx, std::span<const Incoming>) {
        ctx.broadcast(1, 72, ctx.now());
        switch (ctx.my_label() % 3) {
          case 0:
            ctx.sleep_until(ctx.now() + 3);  // on the wheel's level 0
            break;
          case 1:
            ctx.sleep_until(ctx.now() + 300);  // on a higher level
            break;
          default:
            ctx.request_tick();
        }
      });
  SyncRunLimits aborting = sleeping_limits();
  aborting.max_rounds = 7;
  const RunResult fresh =
      run_sync(inst, wake_all(150), 9, algo::flooding_kernel());
  RunWorkspace workspace;
  const WakeSchedule schedule = wake_all(150);
  for (std::uint32_t jobs : {1u, 3u}) {
    SerialChunkExecutor executor;
    SyncKernelArgs aborted;
    aborted.instance = &inst;
    aborted.schedule = &schedule;
    aborted.seed = 9;
    aborted.limits = aborting;
    aborted.workspace = &workspace;
    aborted.parallel = SyncParallel{&executor, jobs};
    EXPECT_THROW(chatter.run_sync(aborted), CheckError);
    SyncKernelArgs reuse;
    reuse.instance = &inst;
    reuse.schedule = &schedule;
    reuse.seed = 9;
    reuse.workspace = &workspace;
    const RunResult again = algo::flooding_kernel().run_sync(reuse);
    EXPECT_EQ(again.wake_time, fresh.wake_time) << "jobs=" << jobs;
    EXPECT_EQ(again.metrics.messages, fresh.metrics.messages);
    EXPECT_EQ(again.metrics.deliveries, fresh.metrics.deliveries);
    EXPECT_EQ(again.metrics.rounds, fresh.metrics.rounds);
    EXPECT_EQ(again.metrics.received_per_node,
              fresh.metrics.received_per_node);
  }
}

// Error order: a node that fails during its step (here an invalid port)
// is reported even when an earlier node of the same round overran
// max_messages, because max_messages is checked only after every chunk
// stepped. The serial round is the one-chunk case, so every job count
// reports the same error.
TEST(SyncDataPath, StepErrorPreemptsMaxMessagesAtAnyJobCount) {
  const auto g = graph::path(8);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const WakeSchedule schedule = wake_all(8);
  const auto error_text = [&](bool bad_port, std::uint32_t jobs) {
    const KernelRunner kernel = test::lambda_kernel(
        test::NoHook{}, test::NoHook{},
        [bad_port](auto& ctx, std::span<const Incoming>) {
          if (ctx.node() == 0) {
            for (int i = 0; i < 10; ++i) ctx.send(0, 1, 8);
          }
          if (ctx.node() == 7 && bad_port) {
            ctx.send(99, 1, 8);
          }
        });
    SerialChunkExecutor executor;
    SyncKernelArgs args;
    args.instance = &inst;
    args.schedule = &schedule;
    args.seed = 1;
    args.limits.max_messages = 5;
    if (jobs > 1) args.parallel = SyncParallel{&executor, jobs};
    try {
      kernel.run_sync(args);
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string port_error = error_text(true, 1);
  EXPECT_NE(port_error.find("send on invalid port 99 at node 7"),
            std::string::npos)
      << port_error;
  EXPECT_EQ(error_text(true, 4), port_error);
  const std::string overrun = error_text(false, 1);
  EXPECT_NE(overrun.find("exceeded max_messages"), std::string::npos)
      << overrun;
  EXPECT_EQ(error_text(false, 4), overrun);
}

}  // namespace
}  // namespace rise::sim
