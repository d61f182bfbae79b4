// Unit tests for the run-invariant checker: a scripted clean trace passes,
// and each invariant of the catalogue (causality, conservation,
// monotonicity, wake origin, CONGEST, accounting) is violated by exactly the
// perturbation that should break it.
#include "check/invariants.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "sim/adversary.hpp"

namespace rise::check {
namespace {

bool mentions(const std::vector<std::string>& violations,
              const std::string& needle) {
  for (const auto& v : violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// The scripted reference run: 3 nodes on a path, tau = 2, node 0 woken by
/// the adversary at t=0, a message chain 0 -> 1 -> 2.
struct Script {
  RunModel model;
  sim::WakeSchedule schedule;
  InvariantChecker checker;

  Script() {
    model.num_nodes = 3;
    model.tau = 2;
    model.synchronous = false;
    schedule = sim::wake_single(0);
    checker.begin(model, schedule);
  }

  /// Feeds the canonical clean event stream.
  void feed_clean() {
    const sim::Message msg;  // logical_bits() == 8
    checker.on_node_wake(0, 0, sim::WakeCause::kAdversary);
    checker.on_send(0, 0, 1, msg, {});
    checker.on_deliver(2, 0, 1, msg, {});
    checker.on_node_wake(2, 1, sim::WakeCause::kMessage);
    checker.on_send(2, 1, 2, msg, {});
    checker.on_deliver(3, 1, 2, msg, {});
    checker.on_node_wake(3, 2, sim::WakeCause::kMessage);
  }

  /// The RunResult the engines would report for the clean stream.
  sim::RunResult clean_result() const {
    sim::RunResult r;
    r.metrics.messages = 2;
    r.metrics.bits = 16;
    r.metrics.deliveries = 2;
    r.metrics.first_wake = 0;
    r.metrics.last_wake = 3;
    r.metrics.last_delivery = 3;
    r.metrics.tau = 2;
    r.metrics.sent_per_node = {1, 1, 0};
    r.metrics.received_per_node = {0, 1, 1};
    r.wake_time = {0, 2, 3};
    r.outputs = {};
    return r;
  }
};

TEST(InvariantChecker, CleanScriptedRunPasses) {
  Script s;
  s.feed_clean();
  const auto violations = s.checker.finish(s.clean_result());
  EXPECT_TRUE(violations.empty())
      << "unexpected violation: " << violations.front();
}

TEST(InvariantChecker, LateDeliveryViolatesCausality) {
  Script s;
  const sim::Message msg;
  s.checker.on_node_wake(0, 0, sim::WakeCause::kAdversary);
  s.checker.on_send(0, 0, 1, msg, {});
  s.checker.on_deliver(5, 0, 1, msg, {});  // tau = 2: window is [1, 2]
  EXPECT_TRUE(mentions(s.checker.violations(), "causality"));
}

TEST(InvariantChecker, SameTickDeliveryViolatesCausality) {
  Script s;
  const sim::Message msg;
  s.checker.on_node_wake(0, 0, sim::WakeCause::kAdversary);
  s.checker.on_send(1, 0, 1, msg, {});
  s.checker.on_deliver(1, 0, 1, msg, {});  // must take at least one tick
  EXPECT_TRUE(mentions(s.checker.violations(), "causality"));
}

TEST(InvariantChecker, DeliveryWithoutSendIsFlagged) {
  Script s;
  const sim::Message msg;
  s.checker.on_node_wake(0, 0, sim::WakeCause::kAdversary);
  s.checker.on_deliver(1, 0, 1, msg, {});
  EXPECT_TRUE(mentions(s.checker.violations(), "no matching in-flight send"));
}

TEST(InvariantChecker, AsyncTimeRegressionIsFlagged) {
  Script s;
  const sim::Message msg;
  s.checker.on_node_wake(0, 0, sim::WakeCause::kAdversary);
  s.checker.on_send(4, 0, 1, msg, {});
  s.checker.on_send(3, 0, 1, msg, {});  // global stream must be monotone
  EXPECT_TRUE(mentions(s.checker.violations(), "regressed"));
}

TEST(InvariantChecker, SyncStreamsAreOnlyPerKindMonotone) {
  // The lock-step engine records round-r sends interleaved with round-r+1
  // deliveries: send(0) deliver(1) send(0) must NOT be a violation in sync
  // mode, but the same stream in async mode must be.
  const sim::Message msg;
  for (bool synchronous : {true, false}) {
    RunModel model;
    model.num_nodes = 3;
    model.tau = 1;
    model.synchronous = synchronous;
    InvariantChecker checker;
    checker.begin(model, sim::wake_set({0, 1}));
    checker.on_node_wake(0, 0, sim::WakeCause::kAdversary);
    checker.on_node_wake(0, 1, sim::WakeCause::kAdversary);
    checker.on_send(0, 0, 1, msg, {});
    checker.on_deliver(1, 0, 1, msg, {});
    checker.on_send(0, 1, 2, msg, {});  // regression iff the stream is global
    EXPECT_EQ(mentions(checker.violations(), "regressed"), !synchronous);
  }
}

TEST(InvariantChecker, SendFromSleepingNodeIsFlagged) {
  Script s;
  const sim::Message msg;
  s.checker.on_send(0, 0, 1, msg, {});  // node 0 has not woken
  EXPECT_TRUE(mentions(s.checker.violations(), "not woken"));
}

TEST(InvariantChecker, DoubleWakeIsFlagged) {
  Script s;
  s.checker.on_node_wake(0, 0, sim::WakeCause::kAdversary);
  s.checker.on_node_wake(1, 0, sim::WakeCause::kAdversary);
  EXPECT_TRUE(mentions(s.checker.violations(), "twice"));
}

TEST(InvariantChecker, UnscheduledAdversaryWakeIsFlagged) {
  Script s;
  s.checker.on_node_wake(0, 1, sim::WakeCause::kAdversary);  // only 0 is
  EXPECT_TRUE(mentions(s.checker.violations(), "unscheduled"));
}

TEST(InvariantChecker, AdversaryWakeAtWrongTimeIsFlagged) {
  Script s;
  s.checker.on_node_wake(4, 0, sim::WakeCause::kAdversary);  // scheduled at 0
  EXPECT_TRUE(mentions(s.checker.violations(), "scheduled at"));
}

TEST(InvariantChecker, MessageWakeWithoutDeliveryIsFlagged) {
  Script s;
  s.checker.on_node_wake(0, 1, sim::WakeCause::kMessage);
  EXPECT_TRUE(mentions(s.checker.violations(), "no delivery"));
}

TEST(InvariantChecker, MessageWakeAfterEarlierDeliveryIsFlagged) {
  Script s;
  const sim::Message msg;
  s.checker.on_node_wake(0, 0, sim::WakeCause::kAdversary);
  s.checker.on_send(0, 0, 1, msg, {});
  s.checker.on_deliver(1, 0, 1, msg, {});
  s.checker.on_node_wake(2, 1, sim::WakeCause::kMessage);  // one tick late
  EXPECT_TRUE(mentions(s.checker.violations(), "earliest delivery"));
}

TEST(InvariantChecker, SleepingReceiverThatNeverWakesIsFlagged) {
  Script s;
  const sim::Message msg;
  s.checker.on_node_wake(0, 0, sim::WakeCause::kAdversary);
  s.checker.on_send(0, 0, 1, msg, {});
  s.checker.on_deliver(1, 0, 1, msg, {});
  // Node 1 never wakes despite the delivery at t=1.
  auto result = s.clean_result();
  result.metrics.messages = 1;
  result.metrics.bits = 8;
  result.metrics.deliveries = 1;
  result.metrics.last_wake = 0;
  result.metrics.last_delivery = 1;
  result.metrics.sent_per_node = {1, 0, 0};
  result.metrics.received_per_node = {0, 1, 0};
  result.wake_time = {0, sim::kNever, sim::kNever};
  const auto violations = s.checker.finish(result);
  EXPECT_TRUE(mentions(violations, "woke at t=never"));
}

TEST(InvariantChecker, CongestBudgetIsEnforced) {
  Script s;
  s.model.congest_budget = 16;
  s.checker.begin(s.model, s.schedule);
  const sim::Message big(0, 64, 0);
  s.checker.on_node_wake(0, 0, sim::WakeCause::kAdversary);
  s.checker.on_send(0, 0, 1, big, {});
  EXPECT_TRUE(mentions(s.checker.violations(), "CONGEST budget exceeded"));
}

TEST(InvariantChecker, MetricsMismatchesAreCrossChecked) {
  Script s;
  s.feed_clean();
  auto result = s.clean_result();
  result.metrics.messages = 3;       // trace saw 2
  result.metrics.tau = 7;            // scenario declares 2
  result.wake_time[2] = 1;           // trace saw 3
  const auto violations = s.checker.finish(result);
  EXPECT_TRUE(mentions(violations, "messages mismatch"));
  EXPECT_TRUE(mentions(violations, "tau mismatch"));
  EXPECT_TRUE(mentions(violations, "wake_time diverges"));
}

TEST(InvariantChecker, UndeliveredMessagesAreFlagged) {
  Script s;
  const sim::Message msg;
  s.checker.on_node_wake(0, 0, sim::WakeCause::kAdversary);
  s.checker.on_send(0, 0, 1, msg, {});  // never delivered
  auto result = s.clean_result();
  result.metrics.messages = 1;
  result.metrics.bits = 8;
  result.metrics.deliveries = 0;
  result.metrics.last_wake = 0;
  result.metrics.last_delivery = 0;
  result.metrics.sent_per_node = {1, 0, 0};
  result.metrics.received_per_node = {0, 0, 0};
  result.wake_time = {0, sim::kNever, sim::kNever};
  const auto violations = s.checker.finish(result);
  EXPECT_TRUE(mentions(violations, "undelivered"));
}

TEST(InvariantChecker, ViolationOverflowIsCountedNotRecorded) {
  Script s;
  for (int i = 0; i < 100; ++i) {
    s.checker.on_node_wake(0, 1, sim::WakeCause::kMessage);  // 2 per call
  }
  EXPECT_GT(s.checker.violation_count(), InvariantChecker::kMaxRecorded);
  EXPECT_EQ(s.checker.violations().size(), InvariantChecker::kMaxRecorded);
  const auto violations = s.checker.finish(s.clean_result());
  EXPECT_TRUE(mentions(violations, "suppressed"));
}

// ---------------------------------------------------------------------------
// Integration through run_checked: real engines, real algorithms.

Scenario make_scenario(const std::string& graph, const std::string& schedule,
                       const std::string& algorithm, const std::string& delay,
                       std::uint64_t seed) {
  Scenario s;
  s.spec.graph = graph;
  s.spec.schedule = schedule;
  s.spec.algorithm = algorithm;
  s.spec.delay = delay;
  s.spec.seed = seed;
  s.family = "flooding";
  return s;
}

TEST(RunChecked, CleanAsyncRunHasNoViolations) {
  const auto s =
      make_scenario("cgnp:30:0.15", "single", "flooding", "random:5", 11);
  const CheckedRun run = run_checked(s);
  EXPECT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(run.violations.empty()) << run.violations.front();
  EXPECT_NE(run.digest, 0u);
}

TEST(RunChecked, CleanSyncRunHasNoViolations) {
  const auto s =
      make_scenario("grid:5x5", "dominating", "fast_wakeup", "unit", 5);
  const CheckedRun run = run_checked(s);
  EXPECT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(run.violations.empty()) << run.violations.front();
  EXPECT_TRUE(run.report.synchronous);
}

TEST(RunChecked, InjectedLateDeliveryIsCaught) {
  const auto s = make_scenario("path:8", "single", "flooding", "random:4", 3);
  RunVariant variant;
  variant.fault = FaultKind::kLateDelivery;
  const CheckedRun run = run_checked(s, variant);
  EXPECT_TRUE(run.error.empty()) << run.error;
  ASSERT_FALSE(run.violations.empty());
  EXPECT_TRUE(mentions(run.violations, "causality") ||
              mentions(run.violations, "tau mismatch"));
}

TEST(RunChecked, UnitDelayFloodingMatchesLockStepEngine) {
  const auto s = make_scenario("cgnp:30:0.12", "set:0,3", "flooding", "unit", 9);
  RunVariant sync_variant;
  sync_variant.force_sync_engine = true;
  const CheckedRun async_run = run_checked(s);
  const CheckedRun sync_run = run_checked(s, sync_variant);
  ASSERT_TRUE(async_run.clean());
  ASSERT_TRUE(sync_run.clean());
  EXPECT_EQ(model_free_digest(async_run.report.result),
            model_free_digest(sync_run.report.result));
}

}  // namespace
}  // namespace rise::check
