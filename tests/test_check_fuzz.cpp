// End-to-end tests for the differential scenario fuzzer: a clean campaign on
// the production engines, deterministic scenario sampling, shrinking, and
// the injected-fault path that proves the oracle actually catches bugs.
#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "check/shrink.hpp"
#include "support/check.hpp"

namespace rise::check {
namespace {

TEST(SampleScenario, IsDeterministicPerCampaignAndIndex) {
  const GeneratorOptions options;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Scenario a = sample_scenario(7, i, options);
    const Scenario b = sample_scenario(7, i, options);
    EXPECT_EQ(a.spec.graph, b.spec.graph);
    EXPECT_EQ(a.spec.schedule, b.spec.schedule);
    EXPECT_EQ(a.spec.algorithm, b.spec.algorithm);
    EXPECT_EQ(a.spec.delay, b.spec.delay);
    EXPECT_EQ(a.spec.seed, b.spec.seed);
    EXPECT_EQ(a.family, b.family);
  }
  // Different campaign seeds must diverge somewhere in a short prefix.
  bool diverged = false;
  for (std::uint64_t i = 0; i < 20 && !diverged; ++i) {
    diverged = sample_scenario(7, i, options).spec.graph !=
               sample_scenario(8, i, options).spec.graph;
  }
  EXPECT_TRUE(diverged);
}

TEST(SampleScenario, FamilyFilterIsHonored) {
  GeneratorOptions options;
  options.families = {"gossip"};
  for (std::uint64_t i = 0; i < 10; ++i) {
    const Scenario s = sample_scenario(3, i, options);
    EXPECT_EQ(s.family, "gossip");
    // Synchronous families pin unit delays.
    EXPECT_EQ(s.spec.delay, "unit");
  }
  options.families = {"no_such_family"};
  EXPECT_THROW(sample_scenario(3, 0, options), CheckError);
}

TEST(SampleScenario, CoversEveryFamilyInAShortPrefix) {
  std::set<std::string> seen;
  for (std::uint64_t i = 0; i < 64; ++i) {
    seen.insert(sample_scenario(1, i, {}).family);
  }
  EXPECT_EQ(seen.size(), scenario_families().size());
}

// rise_cli hunt records family_for_algorithm(--algo) in its corpus entries;
// the fuzzer replays them under that family, so the two must agree.
TEST(SampleScenario, EverySampledAlgorithmMapsBackToItsFamily) {
  for (const std::string& family : scenario_families()) {
    GeneratorOptions options;
    options.families = {family};
    for (std::uint64_t i = 0; i < 200; ++i) {
      const Scenario s = sample_scenario(11, i, options);
      EXPECT_EQ(family_for_algorithm(s.spec.algorithm), family)
          << s.spec.algorithm;
    }
  }
  EXPECT_EQ(family_for_algorithm("beta:2"), "");
  EXPECT_EQ(family_for_algorithm("no_such_algorithm"), "");
}

TEST(ShrinkCandidates, ShrinkGraphsRespectFamilyFloors) {
  Scenario s;
  s.spec.graph = "grid:6x8";
  s.spec.schedule = "random:0.5";
  s.spec.delay = "random:9";
  ASSERT_FALSE(shrink_candidates(s).empty());
  // Shrinking to a fixed point with an always-true predicate reaches the
  // floor of every dimension.
  const auto result =
      shrink_scenario(s, [](const Scenario&) { return true; });
  EXPECT_EQ(result.scenario.spec.graph, "grid:2x2");
  EXPECT_EQ(result.scenario.spec.schedule, "single");
  EXPECT_EQ(result.scenario.spec.delay, "unit");
  EXPECT_GT(result.steps, 0u);

  Scenario reg;
  reg.spec.graph = "regular:40:3";
  const auto reg_result =
      shrink_scenario(reg, [](const Scenario&) { return true; });
  // Both n and d shrink while keeping n > d and n*d even; the fixed point
  // is the single-edge graph.
  EXPECT_EQ(reg_result.scenario.spec.graph, "regular:2:1");
}

TEST(ShrinkScenario, RejectsAPassingScenario) {
  Scenario s;
  s.spec.graph = "path:8";
  EXPECT_THROW(
      shrink_scenario(s, [](const Scenario&) { return false; }), CheckError);
}

TEST(ShrinkScenario, PreservesThePredicate) {
  // A synthetic "bug" that needs >= 6 nodes and a non-unit delay: the shrink
  // must keep both properties while minimizing everything else.
  Scenario s;
  s.spec.graph = "path:40";
  s.spec.schedule = "random:0.5";
  s.spec.delay = "random:8";
  const auto still_fails = [](const Scenario& c) {
    const auto run = run_checked(c);
    return run.error.empty() && run.report.num_nodes >= 6 &&
           c.spec.delay != "unit";
  };
  ASSERT_TRUE(still_fails(s));
  const auto result = shrink_scenario(s, still_fails);
  EXPECT_TRUE(still_fails(result.scenario));
  // Halving 40 -> 20 -> 10 stops there: path:5 no longer "fails".
  EXPECT_EQ(result.scenario.spec.graph, "path:10");
  EXPECT_EQ(result.scenario.spec.schedule, "single");
  EXPECT_NE(result.scenario.spec.delay, "unit");
}

TEST(ShrinkScenario, PreservesSleepingModelValidity) {
  // Sleeping-model scenarios are synchronous (delay pinned to "unit") and
  // their algorithm carries the sleeping flag; the shrinker never mutates
  // the algorithm or un-pins the delay, so every candidate along the shrink
  // path is still a valid sleeping run. Pin that: shrink a sampled sleeping
  // scenario to its fixed point and re-run every dimension's floor through
  // the checked oracle.
  GeneratorOptions options;
  options.families = {"sleeping"};
  for (std::uint64_t i = 0; i < 6; ++i) {
    const Scenario s = sample_scenario(11, i, options);
    ASSERT_EQ(s.family, "sleeping");
    ASSERT_EQ(s.spec.delay, "unit");
    ASSERT_TRUE(s.spec.algorithm == "smis" || s.spec.algorithm == "smatching")
        << s.spec.algorithm;
    const auto valid_sleeping_run = [&s](const Scenario& c) {
      EXPECT_EQ(c.spec.algorithm, s.spec.algorithm);
      EXPECT_EQ(c.spec.delay, "unit");
      return run_checked(c).error.empty();
    };
    ASSERT_TRUE(valid_sleeping_run(s)) << repro_command(s);
    const auto result = shrink_scenario(s, valid_sleeping_run);
    EXPECT_EQ(result.scenario.spec.algorithm, s.spec.algorithm);
    EXPECT_EQ(result.scenario.spec.delay, "unit");
    EXPECT_TRUE(valid_sleeping_run(result.scenario))
        << repro_command(result.scenario);
  }
}

TEST(RunFuzz, CleanCampaignAcrossAllFamilies) {
  // The default generator keeps tau <= 12, so deliveries stay near the
  // event timing wheel's level 0; max_tau = 10000 also samples taus whose
  // deliveries mostly land on the higher levels and spill down.
  for (const sim::Time max_tau :
       {GeneratorOptions{}.max_tau, sim::Time{10000}}) {
    SCOPED_TRACE(max_tau);
    FuzzOptions options;
    options.trials = 40;
    options.seed = 1;
    options.generator.max_tau = max_tau;
    options.verify_threads = false;
    const FuzzReport report = run_fuzz(options);
    EXPECT_TRUE(report.ok()) << format_fuzz(report);
    EXPECT_EQ(report.trials, 40u);
    EXPECT_EQ(report.determinism_replays, report.trials);
  }
}

TEST(RunFuzz, ParallelCampaignIsBitIdenticalToSerial) {
  FuzzOptions options;
  options.trials = 24;
  options.seed = 5;
  options.jobs = 4;
  options.verify_threads = true;  // the 1-vs-N differential itself
  const FuzzReport report = run_fuzz(options);
  EXPECT_TRUE(report.ok()) << format_fuzz(report);
  EXPECT_TRUE(report.threads_verified);
  EXPECT_EQ(report.jobs, 4u);
}

// The round-parallel differential (PR 10): 50 sampled scenarios, every
// synchronous trial replayed with trial_jobs = 3 on the serial chunk
// executor (threadless, so this stays deterministic), all digests equal to
// the sequential run. The sync-capable families guarantee the differential
// actually fires — parallel_differentials counts the replays performed.
TEST(RunFuzz, RoundParallelReplayMatchesSequentialDigests) {
  FuzzOptions options;
  options.trials = 50;
  options.seed = 9;
  options.trial_jobs = 3;
  options.verify_threads = false;
  const FuzzReport report = run_fuzz(options);
  EXPECT_TRUE(report.ok()) << format_fuzz(report);
  EXPECT_EQ(report.trials, 50u);
  EXPECT_GT(report.parallel_differentials, 0u);
  const std::string formatted = format_fuzz(report);
  EXPECT_NE(formatted.find("round-parallel"), std::string::npos);
}

// trial_jobs = 1 disables the differential entirely.
TEST(RunFuzz, RoundParallelDifferentialCanBeDisabled) {
  FuzzOptions options;
  options.trials = 8;
  options.seed = 9;
  options.trial_jobs = 1;
  options.verify_threads = false;
  const FuzzReport report = run_fuzz(options);
  EXPECT_TRUE(report.ok()) << format_fuzz(report);
  EXPECT_EQ(report.parallel_differentials, 0u);
}

TEST(RunFuzz, InjectedFaultIsCaughtAndShrunkSmall) {
  FuzzOptions options;
  options.trials = 12;
  options.seed = 2;
  options.generator.families = {"flooding"};
  options.fault = FaultKind::kLateDelivery;
  options.verify_threads = false;
  options.max_failures = 12;
  const FuzzReport report = run_fuzz(options);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.failures.empty());
  for (const auto& f : report.failures) {
    EXPECT_EQ(f.kind, "violation");
    EXPECT_FALSE(f.repro.empty());
    EXPECT_LE(f.shrunk_nodes, 10u)
        << "shrinker left a large repro: " << f.repro;
  }
  const std::string formatted = format_fuzz(report);
  EXPECT_NE(formatted.find("rise_cli"), std::string::npos);
}

}  // namespace
}  // namespace rise::check
