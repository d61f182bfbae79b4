// The adversary search driver (src/search): objective plumbing, single-gene
// mutation validity, hunt determinism across thread counts, monotone
// best-so-far, the equal-budget random baseline, and the regression-corpus
// round trip (champion -> corpus entry -> fuzz replay).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "check/corpus.hpp"
#include "check/fuzz.hpp"
#include "check/scenario.hpp"
#include "search/hunt.hpp"
#include "search/mutate.hpp"
#include "search/objective.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace rise::search {
namespace {

check::Scenario make_scenario(const std::string& graph,
                              const std::string& schedule,
                              const std::string& algorithm,
                              const std::string& delay, std::uint64_t seed) {
  check::Scenario s;
  s.spec.graph = graph;
  s.spec.schedule = schedule;
  s.spec.algorithm = algorithm;
  s.spec.delay = delay;
  s.spec.seed = seed;
  return s;
}

std::string family_prefix(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  return colon == std::string::npos ? spec : spec.substr(0, colon);
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// ---------------------------------------------------------------- objective

TEST(HuntObjective, NamesRoundTrip) {
  for (Objective o :
       {Objective::kMessages, Objective::kTime, Objective::kRhoAwk}) {
    EXPECT_EQ(parse_objective(objective_name(o)), o);
  }
  EXPECT_STREQ(objective_name(Objective::kMessages), "messages");
  EXPECT_STREQ(objective_name(Objective::kTime), "time");
  EXPECT_STREQ(objective_name(Objective::kRhoAwk), "rho_awk");
  EXPECT_THROW(parse_objective("bits"), CheckError);
}

TEST(HuntObjective, ValuesReadTheProfile) {
  obs::RunProfile p;
  p.messages = 42;
  p.time_units = 7.5;
  p.rho_awk = 9;  // identity only — no longer the rho_awk objective's value
  p.num_nodes = 3;
  for (std::uint64_t a : {9u, 4u, 0u}) p.awake_rounds.add(a);
  p.awake_total = 13;
  p.awake_max = 9;
  EXPECT_DOUBLE_EQ(objective_value(Objective::kMessages, p), 42.0);
  EXPECT_DOUBLE_EQ(objective_value(Objective::kTime, p), 7.5);
  // rho_awk reads the *measured* awake complexity, not the schedule proxy.
  EXPECT_DOUBLE_EQ(objective_value(Objective::kRhoAwk, p), 9.0);
}

// A profile with nodes but no awake attribution (pre-awake-accounting JSON,
// hand-built fixture) must fail fast on the rho_awk objective instead of
// silently scoring 0 — a hunt fed such profiles would rank every candidate
// equal-worst and report a bogus champion.
TEST(HuntObjective, RhoAwkFailsFastWithoutAwakeAttribution) {
  obs::RunProfile p;
  p.algorithm = "flooding";
  p.num_nodes = 8;
  p.rho_awk = 5;
  EXPECT_THROW(objective_value(Objective::kRhoAwk, p), CheckError);
  // The other objectives don't require awake attribution.
  EXPECT_NO_THROW(objective_value(Objective::kMessages, p));
  EXPECT_NO_THROW(objective_value(Objective::kTime, p));
  // An empty (n = 0) profile is a legitimate zero, not an error.
  obs::RunProfile empty;
  EXPECT_DOUBLE_EQ(objective_value(Objective::kRhoAwk, empty), 0.0);
}

// Envelope formulas must match the conformance suite
// (test_complexity_conformance.cpp) — spot checks per algorithm family.
TEST(HuntObjective, EnvelopesMatchConformanceFormulas) {
  obs::RunProfile p;
  p.algorithm = "flooding";
  p.num_nodes = 64;
  p.num_edges = 100;
  p.rho_awk = 9;
  EXPECT_DOUBLE_EQ(envelope_bound(Objective::kMessages, p), 200.0);
  EXPECT_DOUBLE_EQ(envelope_bound(Objective::kTime, p), 9.0);
  EXPECT_DOUBLE_EQ(envelope_bound(Objective::kRhoAwk, p), 63.0);

  p.algorithm = "fip06";
  p.num_nodes = 512;
  EXPECT_DOUBLE_EQ(envelope_bound(Objective::kMessages, p), 1022.0);

  p.algorithm = "ranked_dfs";
  p.num_nodes = 64;
  EXPECT_DOUBLE_EQ(envelope_bound(Objective::kMessages, p),
                   20.0 * 64.0 * std::log(64.0));

  // ranked_dfs:congest parses to the same family prefix.
  p.algorithm = "ranked_dfs:congest";
  EXPECT_DOUBLE_EQ(envelope_bound(Objective::kMessages, p),
                   20.0 * 64.0 * std::log(64.0));

  // Sleeping-model families carry the Ghaffari–Portmann O(log n) awake
  // envelope; everything else keeps the generic n - 1 bound.
  p.algorithm = "smis";
  p.num_nodes = 64;
  EXPECT_DOUBLE_EQ(envelope_bound(Objective::kRhoAwk, p),
                   16.0 * std::log2(64.0) + 32.0);
  p.algorithm = "smatching";
  EXPECT_DOUBLE_EQ(envelope_bound(Objective::kRhoAwk, p),
                   16.0 * std::log2(64.0) + 32.0);

  p.algorithm = "dkq-like-unknown";
  EXPECT_DOUBLE_EQ(envelope_bound(Objective::kMessages, p), 0.0);
  EXPECT_DOUBLE_EQ(envelope_bound(Objective::kTime, p), 0.0);

  // The lower-bound claims (thm1 for beta, thm2 for nih) bound their own
  // family graphs from the achievable side, not any run: no envelope.
  for (const char* algorithm : {"beta:2", "nih:ttl:4"}) {
    p.algorithm = algorithm;
    EXPECT_DOUBLE_EQ(envelope_bound(Objective::kMessages, p), 0.0)
        << algorithm;
    EXPECT_DOUBLE_EQ(envelope_bound(Objective::kTime, p), 0.0) << algorithm;
  }
}

// ----------------------------------------------------------------- mutation

// Single-gene validity: chained mutations keep the algorithm and graph
// family fixed, change at most one of {graph, schedule, delay, seed} per
// step (a clamped perturbation at a corridor bound may be a no-op), and
// every emitted spec parses through the production spec grammar.
TEST(HuntMutation, MutationsAreValidAndSingleGene) {
  MutationLimits limits;
  limits.min_nodes = 8;
  limits.max_nodes = 128;
  limits.max_tau = 8;
  const std::vector<check::Scenario> prototypes = {
      make_scenario("cgnp:64:0.1", "staggered:4:2", "flooding", "fixed:4", 7),
      make_scenario("path:32", "single", "fip06", "unit", 11),
      make_scenario("grid:6x8", "random:0.5", "flooding", "random:3", 3),
      make_scenario("regular:24:4", "all", "ranked_dfs", "slow:4:3", 5),
  };
  for (const check::Scenario& proto : prototypes) {
    check::Scenario s = proto;
    Rng rng(0xFEED ^ std::hash<std::string>{}(proto.spec.graph));
    for (int step = 0; step < 200; ++step) {
      const check::Scenario m = mutate(s, rng, limits);
      EXPECT_EQ(m.spec.algorithm, proto.spec.algorithm);
      EXPECT_EQ(family_prefix(m.spec.graph), family_prefix(proto.spec.graph));
      const int changed = (m.spec.graph != s.spec.graph ? 1 : 0) +
                          (m.spec.schedule != s.spec.schedule ? 1 : 0) +
                          (m.spec.delay != s.spec.delay ? 1 : 0) +
                          (m.spec.seed != s.spec.seed ? 1 : 0);
      EXPECT_LE(changed, 1) << m.spec.graph << " " << m.spec.schedule << " "
                            << m.spec.delay;

      Rng grng(1);
      const graph::Graph g = app::parse_graph_spec(m.spec.graph, grng);
      EXPECT_GE(g.num_nodes(), 2u) << m.spec.graph;
      Rng srng(2);
      EXPECT_NO_THROW(app::parse_schedule_spec(m.spec.schedule, g, srng))
          << m.spec.schedule << " on " << m.spec.graph;
      EXPECT_NO_THROW(app::parse_delay_spec(m.spec.delay, 3)) << m.spec.delay;
      s = m;
    }
  }
}

// Count-valued graph fields stay inside the MutationLimits corridor: for
// families whose first field is the node count, the generated graph never
// exceeds max_nodes however long the mutation chain runs.
TEST(HuntMutation, NodeCountsRespectTheCorridor) {
  MutationLimits limits;
  limits.min_nodes = 8;
  limits.max_nodes = 64;
  check::Scenario s =
      make_scenario("cgnp:32:0.2", "single", "flooding", "unit", 1);
  Rng rng(99);
  for (int step = 0; step < 300; ++step) {
    s = mutate(s, rng, limits);
    Rng grng(1);
    const graph::Graph g = app::parse_graph_spec(s.spec.graph, grng);
    EXPECT_LE(g.num_nodes(), limits.max_nodes) << s.spec.graph;
  }
}

TEST(HuntMutation, SynchronousAlgorithmsPinUnitDelay) {
  MutationLimits limits;
  limits.max_nodes = 64;
  check::Scenario s =
      make_scenario("cgnp:32:0.2", "single", "fast_wakeup", "unit", 2);
  Rng rng(17);
  for (int step = 0; step < 200; ++step) {
    s = mutate(s, rng, limits);
    EXPECT_EQ(s.spec.delay, "unit");
  }
}

TEST(HuntMutation, RandomGenomeResamplesWithinTheFamily) {
  MutationLimits limits;
  limits.max_nodes = 64;
  const check::Scenario proto =
      make_scenario("cgnp:24:0.1", "single", "flooding", "unit", 4);
  Rng rng(23);
  for (int draw = 0; draw < 100; ++draw) {
    const check::Scenario g = random_genome(proto, rng, limits);
    EXPECT_EQ(g.spec.algorithm, "flooding");
    EXPECT_EQ(family_prefix(g.spec.graph), "cgnp");
    Rng grng(1);
    const graph::Graph cg = app::parse_graph_spec(g.spec.graph, grng);
    EXPECT_GE(cg.num_nodes(), 2u);
    EXPECT_LE(cg.num_nodes(), limits.max_nodes);
    Rng srng(2);
    EXPECT_NO_THROW(app::parse_schedule_spec(g.spec.schedule, cg, srng));
    EXPECT_NO_THROW(app::parse_delay_spec(g.spec.delay, 3));
  }
}

// --------------------------------------------------------------------- hunt

HuntOptions small_hunt() {
  HuntOptions options;
  options.initial =
      make_scenario("cgnp:16:0.2", "single", "flooding", "unit", 5);
  options.objective = Objective::kMessages;
  options.budget = 24;
  options.lambda = 4;
  options.seed = 3;
  options.limits.min_nodes = 8;
  options.limits.max_nodes = 48;
  options.limits.max_tau = 6;
  return options;
}

TEST(HuntSearch, DeterministicAcrossThreadCounts) {
  HuntOptions serial = small_hunt();
  serial.jobs = 1;
  HuntOptions parallel = small_hunt();
  parallel.jobs = 3;
  const HuntReport a = run_hunt(serial);
  const HuntReport b = run_hunt(parallel);
  EXPECT_EQ(b.jobs, 3u);
  EXPECT_EQ(a.champion.spec.graph, b.champion.spec.graph);
  EXPECT_EQ(a.champion.spec.schedule, b.champion.spec.schedule);
  EXPECT_EQ(a.champion.spec.delay, b.champion.spec.delay);
  EXPECT_EQ(a.champion.spec.seed, b.champion.spec.seed);
  EXPECT_EQ(a.champion_value, b.champion_value);
  EXPECT_EQ(a.champion_digest, b.champion_digest);
  EXPECT_EQ(a.baseline_value, b.baseline_value);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].evaluations, b.trajectory[i].evaluations);
    EXPECT_EQ(a.trajectory[i].value, b.trajectory[i].value);
  }
}

TEST(HuntSearch, BestSoFarIsMonotoneAndChampionIsFinal) {
  const HuntReport report = run_hunt(small_hunt());
  EXPECT_EQ(report.evaluations, 24u);
  ASSERT_FALSE(report.trajectory.empty());
  for (std::size_t i = 1; i < report.trajectory.size(); ++i) {
    EXPECT_GT(report.trajectory[i].value, report.trajectory[i - 1].value);
    EXPECT_GE(report.trajectory[i].evaluations,
              report.trajectory[i - 1].evaluations);
  }
  EXPECT_LE(report.trajectory.back().evaluations, report.evaluations);
  EXPECT_EQ(report.champion_value, report.trajectory.back().value);
  EXPECT_TRUE(report.champion_clean);
  EXPECT_GT(report.champion_value, 0.0);
  // Flooding's message envelope (2m) is known for every champion.
  EXPECT_GT(report.envelope, 0.0);
  EXPECT_GT(report.envelope_ratio(), 0.0);
  EXPECT_LE(report.envelope_ratio(), 1.0 + 1e-9);
}

TEST(HuntSearch, EqualBudgetBaselineRunsAndChampionHolds) {
  // A tiny budget can lose to a lucky uniform draw; at a moderate budget the
  // hill climber's corridor-clamped mutations reach the dense corner of the
  // genome space and hold it (the gated hunts in bench_hunt assert the same
  // dominance at n >= 256).
  HuntOptions options = small_hunt();
  options.budget = 96;
  options.lambda = 8;
  const HuntReport report = run_hunt(options);
  EXPECT_TRUE(report.baseline_run);
  EXPECT_GT(report.baseline_value, 0.0);
  EXPECT_GE(report.champion_value, report.baseline_value);
}

TEST(HuntSearch, AnnealRunsAndStaysMonotone) {
  HuntOptions options = small_hunt();
  options.algorithm = "anneal";
  options.baseline = false;
  const HuntReport report = run_hunt(options);
  EXPECT_EQ(report.algorithm, "anneal");
  EXPECT_FALSE(report.baseline_run);
  EXPECT_TRUE(report.champion_clean);
  for (std::size_t i = 1; i < report.trajectory.size(); ++i) {
    EXPECT_GT(report.trajectory[i].value, report.trajectory[i - 1].value);
  }
}

TEST(HuntSearch, ReportSerializesToParsableJson) {
  HuntOptions options = small_hunt();
  options.budget = 8;
  options.lambda = 4;
  const HuntReport report = run_hunt(options);
  const json::Value doc = json::parse(hunt_to_json(report));
  EXPECT_EQ(doc.at("kind").string, "hunt_report");
  EXPECT_EQ(doc.at("objective").string, "messages");
  EXPECT_EQ(doc.at("evaluations").u64, report.evaluations);
  EXPECT_EQ(doc.at("champion").at("graph").string,
            report.champion.spec.graph);
  EXPECT_EQ(doc.at("champion").at("digest").u64, report.champion_digest);
  EXPECT_EQ(doc.at("baseline_run").boolean, report.baseline_run);
  EXPECT_EQ(doc.at("trajectory").size(), report.trajectory.size());
}

// ------------------------------------------------------------------- corpus

TEST(HuntCorpus, ChampionEntryRoundTripsThroughTheLineFormat) {
  HuntOptions options = small_hunt();
  options.baseline = false;
  const HuntReport report = run_hunt(options);
  ASSERT_TRUE(report.champion_clean);
  const check::CorpusEntry entry = champion_entry(report);
  EXPECT_EQ(entry.digest, report.champion_digest);
  EXPECT_EQ(entry.objective, "messages");
  EXPECT_EQ(entry.value, report.champion_value);

  const check::CorpusEntry back =
      check::parse_corpus_line(check::corpus_line(entry));
  EXPECT_EQ(back.scenario.spec.graph, entry.scenario.spec.graph);
  EXPECT_EQ(back.scenario.spec.schedule, entry.scenario.spec.schedule);
  EXPECT_EQ(back.scenario.spec.algorithm, entry.scenario.spec.algorithm);
  EXPECT_EQ(back.scenario.spec.delay, entry.scenario.spec.delay);
  EXPECT_EQ(back.scenario.spec.seed, entry.scenario.spec.seed);
  EXPECT_EQ(back.objective, entry.objective);
  EXPECT_EQ(back.value, entry.value);
  EXPECT_EQ(back.digest, entry.digest);
}

// A corpus line is external input: every value must span its whole token
// (stoull stopped silently at "11junk"), carry no sign, and name each key
// once. Otherwise a damaged entry replays clean under a different scenario.
TEST(HuntCorpus, ParseRejectsJunkSignsAndRepeatedKeys) {
  const std::string good =
      "graph=cgnp:256:0.1 schedule=all algo=fip06 delay=unit seed=11 "
      "family=advice objective=messages value=510 digest=5454580b385c24fc";
  const check::CorpusEntry entry = check::parse_corpus_line(good);
  EXPECT_EQ(entry.scenario.spec.seed, 11u);
  EXPECT_EQ(entry.value, 510.0);
  EXPECT_EQ(entry.digest, 0x5454580b385c24fcull);
  EXPECT_EQ(check::corpus_line(entry), good);

  const auto with = [&good](const std::string& from, const std::string& to) {
    std::string line = good;
    line.replace(line.find(from), from.size(), to);
    return line;
  };
  for (const std::string& bad : {
           with("seed=11", "seed=11junk"),
           with("seed=11", "seed=-1"),
           with("seed=11", "seed=+11"),
           with("seed=11", "seed=18446744073709551616"),
           with("digest=5454580b385c24fc", "digest=5454580b385c24fczz"),
           with("digest=5454580b385c24fc", "digest=05454580b385c24fc"),
           with("digest=5454580b385c24fc", "digest=0x5454580b385c24"),
           with("digest=5454580b385c24fc", "digest=-1"),
           with("value=510", "value=510x"),
           with("value=510", "value=nan"),
           with("value=510", "value=inf"),
           with("seed=11", "seed=11 seed=12"),
           with("algo=fip06", "algo=fip06 algo=flooding"),
           with("value=510", "value=510 value=511"),
           with(" digest=5454580b385c24fc", ""),
       }) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(check::parse_corpus_line(bad), CheckError);
  }
}

check::CorpusEntry recorded_entry(std::uint64_t seed) {
  check::CorpusEntry entry;
  entry.scenario = make_scenario("path:8", "single", "flooding", "unit", seed);
  entry.objective = "messages";
  const check::CheckedRun run = check::run_checked(entry.scenario);
  EXPECT_TRUE(run.clean());
  entry.value = static_cast<double>(run.report.result.metrics.messages);
  entry.digest = run.digest;
  return entry;
}

TEST(HuntCorpus, AppendLoadReplayRoundTrip) {
  const std::string path = temp_path("hunt_corpus_roundtrip.txt");
  std::filesystem::remove(path);
  check::append_corpus(path, recorded_entry(3));
  check::append_corpus(path, recorded_entry(4));

  // The header is written once, on creation.
  std::ifstream in(path);
  std::string first_line;
  ASSERT_TRUE(std::getline(in, first_line));
  EXPECT_EQ(first_line, "# rise-corpus v1");

  const std::vector<check::CorpusEntry> entries = check::load_corpus(path);
  ASSERT_EQ(entries.size(), 2u);
  const check::CorpusReplayReport replay = check::replay_corpus(entries);
  EXPECT_TRUE(replay.ok());
  EXPECT_EQ(replay.entries, 2u);
  EXPECT_EQ(replay.clean, 2u);
  EXPECT_EQ(replay.digest_matches, 2u);
  EXPECT_NE(check::format_corpus_replay(replay).find("OK"),
            std::string::npos);
}

TEST(HuntCorpus, FuzzReplaysCorpusAndFlagsDigestDrift) {
  const std::string good = temp_path("hunt_corpus_good.txt");
  const std::string drifted = temp_path("hunt_corpus_drift.txt");
  std::filesystem::remove(good);
  std::filesystem::remove(drifted);
  check::append_corpus(good, recorded_entry(3));
  check::CorpusEntry bad = recorded_entry(3);
  bad.digest ^= 0x1;  // simulate a behaviour change since recording
  check::append_corpus(drifted, bad);

  check::FuzzOptions options;
  options.trials = 1;
  options.seed = 9;
  options.jobs = 1;
  options.shrink = false;
  options.verify_threads = false;
  options.generator.max_nodes = 16;

  options.corpus = {good};
  const check::FuzzReport ok_report = check::run_fuzz(options);
  EXPECT_EQ(ok_report.corpus_entries, 1u);
  EXPECT_EQ(ok_report.corpus_failures, 0u);

  options.corpus = {good, drifted};
  const check::FuzzReport drift_report = check::run_fuzz(options);
  EXPECT_EQ(drift_report.corpus_entries, 2u);
  EXPECT_EQ(drift_report.corpus_failures, 1u);
  EXPECT_FALSE(drift_report.ok());
  ASSERT_FALSE(drift_report.failures.empty());
  const check::FuzzFailure& failure = drift_report.failures.front();
  EXPECT_EQ(failure.kind, "corpus-divergence");
  ASSERT_FALSE(failure.details.empty());
  EXPECT_NE(failure.details.front().find("digest drift"), std::string::npos);
  EXPECT_NE(check::format_fuzz(drift_report).find("corpus-divergence"),
            std::string::npos);
}

}  // namespace
}  // namespace rise::search
