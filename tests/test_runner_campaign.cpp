#include "runner/campaign.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/scenario.hpp"
#include "runner/result_sink.hpp"
#include "store/result_store.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace rise::runner {
namespace {

app::ExperimentSpec tiny_spec() {
  app::ExperimentSpec spec;
  spec.graph = "path:16";
  spec.algorithm = "flooding";
  spec.schedule = "single";
  spec.delay = "unit";
  spec.seed = 2026;
  return spec;
}

TEST(TrialSeed, IsDeterministicAndSpread) {
  EXPECT_EQ(trial_seed(42, 0), trial_seed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 256; ++i) seen.insert(trial_seed(42, i));
  EXPECT_EQ(seen.size(), 256u);  // no collisions over a small range
  // Different base seeds give unrelated streams.
  EXPECT_NE(trial_seed(42, 0), trial_seed(43, 0));
  // Sequential trial indices must not map to sequential seeds (that would
  // correlate campaigns whose base seeds are close).
  EXPECT_NE(trial_seed(42, 1), trial_seed(42, 0) + 1);
}

TEST(GridAxis, ParsesParamAndValues) {
  const GridAxis axis = parse_grid_axis("algo=flooding,ranked_dfs,ttl:3");
  EXPECT_EQ(axis.param, "algo");
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_EQ(axis.values[0], "flooding");
  EXPECT_EQ(axis.values[1], "ranked_dfs");
  EXPECT_EQ(axis.values[2], "ttl:3");
}

TEST(GridAxis, RejectsMalformedText) {
  EXPECT_THROW(parse_grid_axis("algoflooding"), CheckError);    // no '='
  EXPECT_THROW(parse_grid_axis("algo="), CheckError);           // no values
  EXPECT_THROW(parse_grid_axis("algo=a,,b"), CheckError);       // empty value
  EXPECT_THROW(parse_grid_axis("algo=a,"), CheckError);  // trailing empty
  EXPECT_THROW(parse_grid_axis("algo=,a"), CheckError);  // leading empty
  EXPECT_THROW(parse_grid_axis("=a,b"), CheckError);            // no param
  app::ExperimentSpec spec;
  EXPECT_THROW(apply_grid_param(spec, "bogus", "x"), CheckError);
}

TEST(ExpandTrials, GridIsCartesianConfigMajor) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 2;
  plan.grid = {GridAxis{"graph", {"path:8", "cycle:8"}},
               GridAxis{"algo", {"flooding", "ranked_dfs", "fast_wakeup"}}};
  EXPECT_EQ(config_count(plan), 6u);
  const std::vector<Trial> trials = expand_trials(plan);
  ASSERT_EQ(trials.size(), 12u);  // 2 graphs x 3 algos x 2 seeds

  // Config-major, seed-minor; last grid axis fastest.
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].index, i);
    EXPECT_EQ(trials[i].config_index, i / plan.num_seeds);
    EXPECT_EQ(trials[i].seed_index, i % plan.num_seeds);
    EXPECT_EQ(trials[i].spec.seed, trial_seed(plan.base.seed, i));
  }
  EXPECT_EQ(trials[0].spec.graph, "path:8");
  EXPECT_EQ(trials[0].spec.algorithm, "flooding");
  EXPECT_EQ(trials[2].spec.algorithm, "ranked_dfs");
  EXPECT_EQ(trials[4].spec.algorithm, "fast_wakeup");
  EXPECT_EQ(trials[6].spec.graph, "cycle:8");
  EXPECT_EQ(trials[6].spec.algorithm, "flooding");
}

TEST(RunCampaign, DeterminismAcrossJobs) {
  // The ISSUE acceptance criterion scaled to test time: >= 32 trials, one
  // worker vs eight, bit-identical per-trial seeds and aggregates.
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 16;
  plan.grid = {GridAxis{"algo", {"flooding", "ranked_dfs"}}};

  CampaignOptions serial;
  serial.jobs = 1;
  CampaignOptions parallel;
  parallel.jobs = 8;
  const CampaignResult a = run_campaign(plan, serial);
  const CampaignResult b = run_campaign(plan, parallel);

  ASSERT_EQ(a.trials.size(), 32u);
  ASSERT_EQ(b.trials.size(), 32u);
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.trials[i].trial.spec.seed, b.trials[i].trial.spec.seed);
    EXPECT_EQ(a.trials[i].ok, b.trials[i].ok);
    EXPECT_EQ(a.trials[i].messages, b.trials[i].messages);
    EXPECT_EQ(a.trials[i].bits, b.trials[i].bits);
    EXPECT_EQ(a.trials[i].time_units, b.trials[i].time_units);  // exact
    EXPECT_EQ(a.trials[i].wakeup_span, b.trials[i].wakeup_span);
    EXPECT_EQ(a.trials[i].awake_node_ticks, b.trials[i].awake_node_ticks);
  }
  // Aggregates are accumulated in trial-index order, so they must be
  // byte-identical doubles, not just approximately equal.
  ASSERT_EQ(a.configs.size(), b.configs.size());
  const auto expect_same = [](const ConfigStats& x, const ConfigStats& y) {
    EXPECT_EQ(x.trials, y.trials);
    EXPECT_EQ(x.failures, y.failures);
    EXPECT_EQ(x.errors, y.errors);
    EXPECT_EQ(x.messages.count(), y.messages.count());
    EXPECT_EQ(x.messages.mean(), y.messages.mean());
    EXPECT_EQ(x.messages.stddev(), y.messages.stddev());
    EXPECT_EQ(x.messages.median(), y.messages.median());
    EXPECT_EQ(x.time_units.mean(), y.time_units.mean());
    EXPECT_EQ(x.wakeup_span.mean(), y.wakeup_span.mean());
    EXPECT_EQ(x.awake_node_ticks.mean(), y.awake_node_ticks.mean());
  };
  for (std::size_t c = 0; c < a.configs.size(); ++c) {
    SCOPED_TRACE(c);
    expect_same(a.configs[c], b.configs[c]);
  }
  expect_same(a.total, b.total);
  EXPECT_EQ(a.jobs, 1u);
  EXPECT_EQ(b.jobs, 8u);
}

// trial_jobs composes with jobs: a jobs=2 x trial_jobs=3 campaign (pool of
// six threads, trials on two lanes) must reproduce the serial campaign bit
// for bit. The grid mixes lock-step families (where the
// round-parallel engine actually engages) with an async family (where
// trial_jobs is ignored by contract).
TEST(RunCampaign, TrialJobsComposesWithJobsBitIdentically) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.base.graph = "cgnp:40:0.15";
  plan.num_seeds = 6;
  plan.grid = {GridAxis{"algo", {"fast_wakeup", "smis", "flooding"}}};

  CampaignOptions serial;
  serial.jobs = 1;
  CampaignOptions parallel;
  parallel.jobs = 2;
  parallel.trial_jobs = 3;
  const CampaignResult a = run_campaign(plan, serial);
  const CampaignResult b = run_campaign(plan, parallel);

  ASSERT_EQ(a.trials.size(), 18u);
  ASSERT_EQ(b.trials.size(), 18u);
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.trials[i].trial.spec.seed, b.trials[i].trial.spec.seed);
    EXPECT_EQ(a.trials[i].ok, b.trials[i].ok);
    EXPECT_EQ(a.trials[i].messages, b.trials[i].messages);
    EXPECT_EQ(a.trials[i].bits, b.trials[i].bits);
    EXPECT_EQ(a.trials[i].time_units, b.trials[i].time_units);
    EXPECT_EQ(a.trials[i].wakeup_span, b.trials[i].wakeup_span);
    EXPECT_EQ(a.trials[i].awake_node_ticks, b.trials[i].awake_node_ticks);
  }
  EXPECT_EQ(a.total.failures, b.total.failures);
  EXPECT_EQ(a.total.errors, b.total.errors);
}

TEST(RunCampaign, CountsSleepersAsFailures) {
  // ttl:1 flooding dies out on a long path: the run completes but leaves
  // nodes asleep, which is a failure (not an error) under the default plan.
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.base.graph = "path:64";
  plan.base.algorithm = "ttl:1";
  plan.num_seeds = 3;
  const CampaignResult result = run_campaign(plan);
  EXPECT_EQ(result.total.trials, 3u);
  EXPECT_EQ(result.total.failures, 3u);
  EXPECT_EQ(result.total.errors, 0u);
  EXPECT_EQ(result.total.messages.count(), 0u);  // failures leave no samples
  for (const auto& t : result.trials) {
    EXPECT_TRUE(t.ok);
    EXPECT_FALSE(t.all_awake);
  }
}

TEST(RunCampaign, CapturesTrialErrors) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.base.algorithm = "no_such_algorithm";
  plan.num_seeds = 2;
  const CampaignResult result = run_campaign(plan);  // must not throw
  EXPECT_EQ(result.total.errors, 2u);
  EXPECT_EQ(result.total.failures, 0u);
  for (const auto& t : result.trials) {
    EXPECT_FALSE(t.ok);
    EXPECT_FALSE(t.error.empty());
  }
}

// An exception escaping a trial lane (here: appending to a store opened
// read-only) must surface from run_campaign as that exception, not kill the
// process from a pool thread.
TEST(RunCampaign, LaneErrorsPropagateToTheCaller) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "rise_campaign_read_only";
  std::filesystem::remove_all(dir);
  store::ResultStore read_only(dir.string(), "");
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 12;
  for (std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(jobs);
    CampaignOptions options;
    options.jobs = jobs;
    options.store = &read_only;
    try {
      run_campaign(plan, options);
      FAIL() << "run_campaign returned despite a failing store";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("opened read-only"),
                std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(RunCampaign, RejectsEmptyPlans) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 0;
  EXPECT_THROW(run_campaign(plan), CheckError);
}

TEST(RunCampaign, SinkSeesTrialsInIndexOrder) {
  struct OrderSink final : ResultSink {
    std::vector<std::size_t> indices;
    bool summarized = false;
    void trial(const TrialResult& result) override {
      EXPECT_FALSE(summarized);
      indices.push_back(result.trial.index);
    }
    void summary(const CampaignResult&) override { summarized = true; }
  };
  OrderSink sink;
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 24;
  CampaignOptions options;
  options.jobs = 6;
  options.sink = &sink;
  run_campaign(plan, options);
  ASSERT_EQ(sink.indices.size(), 24u);
  for (std::size_t i = 0; i < 24; ++i) EXPECT_EQ(sink.indices[i], i);
  EXPECT_TRUE(sink.summarized);
}

TEST(RunCampaign, FormatMentionsConfigsAndTotals) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 4;
  plan.grid = {GridAxis{"algo", {"flooding", "ranked_dfs"}}};
  const CampaignResult result = run_campaign(plan);
  const std::string text = format_campaign(result);
  EXPECT_NE(text.find("flooding"), std::string::npos);
  EXPECT_NE(text.find("ranked_dfs"), std::string::npos);
  EXPECT_NE(text.find("total"), std::string::npos);
  EXPECT_NE(text.find("8"), std::string::npos);  // 2 configs x 4 seeds
}

void expect_trials_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.trials[i].trial.spec.seed, b.trials[i].trial.spec.seed);
    EXPECT_EQ(a.trials[i].ok, b.trials[i].ok);
    EXPECT_EQ(a.trials[i].num_nodes, b.trials[i].num_nodes);
    EXPECT_EQ(a.trials[i].num_edges, b.trials[i].num_edges);
    EXPECT_EQ(a.trials[i].all_awake, b.trials[i].all_awake);
    EXPECT_EQ(a.trials[i].awake_count, b.trials[i].awake_count);
    EXPECT_EQ(a.trials[i].messages, b.trials[i].messages);
    EXPECT_EQ(a.trials[i].bits, b.trials[i].bits);
    EXPECT_EQ(a.trials[i].time_units, b.trials[i].time_units);  // exact
    EXPECT_EQ(a.trials[i].rounds, b.trials[i].rounds);
    EXPECT_EQ(a.trials[i].wakeup_span, b.trials[i].wakeup_span);
    EXPECT_EQ(a.trials[i].awake_node_ticks, b.trials[i].awake_node_ticks);
  }
}

// Every campaign trial equals a direct prepare + execute of its spec made
// with no workspace and no cache, so the runner's recycled worker
// workspaces and shared-config preparation cache never change a result.
// The reference prepares from the trial spec, with the seed set to the base
// seed under kSharedConfig. The grid includes an advice scheme (fip06),
// whose oracle output lives in the cached preparation.
TEST(RunCampaign, TrialsEqualADirectUncachedReference) {
  for (const PrepareMode mode :
       {PrepareMode::kPerTrial, PrepareMode::kSharedConfig}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(mode == PrepareMode::kPerTrial ? "per_trial"
                                                  : "shared_config");
      SCOPED_TRACE(jobs);
      CampaignPlan plan;
      plan.base = tiny_spec();
      plan.base.graph = "cgnp:60:0.08";
      plan.base.schedule = "random:0.3";
      plan.base.delay = "random:3";
      plan.num_seeds = 6;
      plan.grid = {GridAxis{"algo", {"flooding", "ranked_dfs", "fip06"}}};
      plan.prepare_mode = mode;
      CampaignOptions options;
      options.jobs = jobs;
      const CampaignResult result = run_campaign(plan, options);
      ASSERT_EQ(result.trials.size(), 18u);

      for (const TrialResult& t : result.trials) {
        SCOPED_TRACE(t.trial.index);
        ASSERT_TRUE(t.ok) << t.error;
        app::ExperimentSpec prep_spec = t.trial.spec;
        if (mode == PrepareMode::kSharedConfig) prep_spec.seed = plan.base.seed;
        const app::ExperimentReport ref = app::execute_prepared(
            app::prepare_experiment(prep_spec), t.trial.spec);
        EXPECT_EQ(t.result_digest, check::digest_run(ref.result));
        EXPECT_EQ(t.num_nodes, ref.num_nodes);
        EXPECT_EQ(t.num_edges, ref.num_edges);
        EXPECT_EQ(t.rho_awk, ref.rho_awk);
        EXPECT_EQ(t.synchronous, ref.synchronous);
        EXPECT_EQ(t.all_awake, ref.result.all_awake());
        EXPECT_EQ(t.awake_count, ref.result.awake_count());
        EXPECT_EQ(t.messages, ref.result.metrics.messages);
        EXPECT_EQ(t.bits, ref.result.metrics.bits);
        EXPECT_EQ(t.time_units, ref.result.metrics.time_units());  // exact
        EXPECT_EQ(t.rounds, ref.result.metrics.rounds);
        EXPECT_EQ(t.wakeup_span,
                  ref.result.all_awake() ? ref.result.wakeup_span() : 0);
        EXPECT_EQ(t.awake_node_ticks, ref.result.awake_node_ticks());
        EXPECT_EQ(t.advice_max_bits, ref.advice.max_bits);
        EXPECT_EQ(t.advice_avg_bits, ref.advice.avg_bits);
      }
    }
  }
}

TEST(RunCampaign, PrepareModesDifferOnlyInTopologySharing) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.base.graph = "gnp:80:0.05";
  plan.num_seeds = 8;

  plan.prepare_mode = PrepareMode::kPerTrial;
  const CampaignResult per_trial = run_campaign(plan);
  plan.prepare_mode = PrepareMode::kSharedConfig;
  const CampaignResult shared = run_campaign(plan);

  // kSharedConfig: one topology (drawn from the base seed) for the whole
  // config, so edge counts agree across trials; kPerTrial: each trial draws
  // its own graph, so some seed produces a different edge count.
  ASSERT_EQ(shared.trials.size(), 8u);
  for (const TrialResult& t : shared.trials) {
    EXPECT_EQ(t.num_edges, shared.trials[0].num_edges);
    EXPECT_EQ(t.num_nodes, shared.trials[0].num_nodes);
  }
  bool any_differs = false;
  for (const TrialResult& t : per_trial.trials) {
    any_differs = any_differs || t.num_edges != per_trial.trials[0].num_edges;
  }
  EXPECT_TRUE(any_differs);  // gnp edge count varies across seeds
}

TEST(RunCampaign, PreparedCountersTrackCacheUse) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 6;
  plan.grid = {GridAxis{"algo", {"flooding", "ranked_dfs"}}};

  // Shared: one preparation per config, the rest are cache hits.
  plan.prepare_mode = PrepareMode::kSharedConfig;
  const CampaignResult shared = run_campaign(plan);
  EXPECT_EQ(shared.prepared_configs, 2u);
  EXPECT_EQ(shared.prepared_cache_hits, 10u);

  // Per-trial: every trial prepares for itself.
  plan.prepare_mode = PrepareMode::kPerTrial;
  const CampaignResult per_trial = run_campaign(plan);
  EXPECT_EQ(per_trial.prepared_configs, 12u);
  EXPECT_EQ(per_trial.prepared_cache_hits, 0u);
}

TEST(RunCampaign, SharedConfigProfilesStayDeterministic) {
  // Profiled kSharedConfig campaigns must not attach any trial's probe to
  // the cached preparation (which trial builds it first is a scheduling
  // race): profiles carry only per-run phases and identical totals whether
  // the campaign ran on one worker or several.
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 8;
  plan.prepare_mode = PrepareMode::kSharedConfig;
  plan.profile = true;
  CampaignOptions serial;
  serial.jobs = 1;
  CampaignOptions parallel;
  parallel.jobs = 4;
  const CampaignResult a = run_campaign(plan, serial);
  const CampaignResult b = run_campaign(plan, parallel);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_NE(a.trials[i].profile, nullptr);
    ASSERT_NE(b.trials[i].profile, nullptr);
    EXPECT_EQ(a.trials[i].profile->messages, b.trials[i].profile->messages);
    EXPECT_EQ(a.trials[i].profile->events, b.trials[i].profile->events);
  }
  expect_trials_identical(a, b);
}

TEST(PreparedConfigKey, SeparatesConfigsAndIgnoresPerRunFields) {
  app::ExperimentSpec spec = tiny_spec();
  const std::string key = prepared_config_key(spec);
  app::ExperimentSpec other = spec;
  other.schedule = "all";
  other.delay = "random:9";
  EXPECT_EQ(prepared_config_key(other), key);  // per-run fields excluded
  other = spec;
  other.graph = "cycle:16";
  EXPECT_NE(prepared_config_key(other), key);
  other = spec;
  other.algorithm = "ranked_dfs";
  EXPECT_NE(prepared_config_key(other), key);
  other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(prepared_config_key(other), key);  // seed class is part of the key
}

SinkOptions fixed_sink_options() {
  SinkOptions options;
  options.provenance.hostname = "host";
  options.provenance.commit = "abc123";
  options.provenance.started_at = "2026-01-01T00:00:00Z";
  return options;
}

// The per-trial record text of the results document is what tools and the
// shard merge read back, so it is pinned byte for byte for an ok and an
// error trial.
TEST(JsonResultSinkTest, TrialRecordBytesArePinned) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  std::ostringstream os;
  JsonResultSink sink(os, plan, /*jobs=*/2, fixed_sink_options());
  const std::size_t header = os.str().size();

  TrialResult ok;
  ok.trial.index = 4;
  ok.trial.config_index = 1;
  ok.trial.seed_index = 2;
  ok.trial.spec = tiny_spec();
  ok.trial.spec.seed = 0xFEDC'BA98'7654'3210ull;
  ok.ok = true;
  ok.num_nodes = 16;
  ok.num_edges = 15;
  ok.rho_awk = 3;
  ok.synchronous = true;
  ok.all_awake = true;
  ok.awake_count = 16;
  ok.messages = 30;
  ok.bits = 960;
  ok.time_units = 15.5;
  ok.rounds = 17;
  ok.wakeup_span = 15;
  ok.awake_node_ticks = 121;
  ok.advice_max_bits = 4;
  ok.advice_avg_bits = 2.125;
  ok.result_digest = 0x8000'0000'0000'0001ull;
  ok.wall_ms = 0.75;

  TrialResult error;
  error.trial.index = 5;
  error.trial.config_index = 1;
  error.trial.seed_index = 3;
  error.trial.spec = tiny_spec();
  error.trial.spec.algorithm = "no_such_algorithm";
  error.ok = false;
  error.error = "unknown algorithm \"no_such_algorithm\"";
  error.from_store = true;
  error.wall_ms = 0.5;

  sink.trial(ok);
  sink.trial(error);
  EXPECT_EQ(os.str().substr(header), R"(
    {
      "trial": 4,
      "config": 1,
      "seed_index": 2,
      "seed": 18364758544493064720,
      "graph": "path:16",
      "schedule": "single",
      "algo": "flooding",
      "delay": "unit",
      "n": 16,
      "m": 15,
      "rho_awk": 3,
      "synchronous": true,
      "all_awake": true,
      "awake_count": 16,
      "messages": 30,
      "bits": 960,
      "time_units": 15.5,
      "rounds": 17,
      "wakeup_span": 15,
      "awake_node_ticks": 121,
      "advice_max_bits": 4,
      "advice_avg_bits": 2.125,
      "digest": 9223372036854775809,
      "cached": false,
      "wall_ms": 0.75
    },
    {
      "trial": 5,
      "config": 1,
      "seed_index": 3,
      "seed": 2026,
      "graph": "path:16",
      "schedule": "single",
      "algo": "no_such_algorithm",
      "delay": "unit",
      "error": "unknown algorithm \"no_such_algorithm\"",
      "cached": true,
      "wall_ms": 0.5
    })");
}

// trial_from_json is the exact inverse of JsonResultSink::trial: writing the
// parsed trials of a results document again reproduces it byte for byte —
// ok and error trials, cache flags and embedded profiles included.
TEST(JsonResultSinkTest, TrialFromJsonInvertsTheWriter) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 3;
  plan.grid = {GridAxis{"algo", {"flooding", "no_such_algorithm"}}};
  plan.profile = true;
  SinkOptions options = fixed_sink_options();
  options.embed_profiles = true;
  const auto write = [&](const CampaignResult& result) {
    std::ostringstream os;
    JsonResultSink sink(os, plan, /*jobs=*/1, options);
    for (const TrialResult& r : result.trials) sink.trial(r);
    sink.summary(result);
    return os.str();
  };
  const CampaignResult result = run_campaign(plan);
  ASSERT_EQ(result.total.errors, 3u);
  const std::string text = write(result);

  CampaignResult back = result;
  back.trials.clear();
  const json::Value doc = json::parse(text);
  for (const json::Value& t : doc.at("trials").array) {
    back.trials.push_back(trial_from_json(t));
  }
  EXPECT_EQ(write(back), text);
}

// Worker documents are read back by the shard merge: a member that does not
// fit its field, has the wrong JSON type, or is missing must be rejected.
TEST(JsonResultSinkTest, TrialFromJsonRejectsValuesThatDoNotFit) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  std::ostringstream os;
  JsonResultSink sink(os, plan, /*jobs=*/1, fixed_sink_options());
  CampaignOptions options;
  options.sink = &sink;
  run_campaign(plan, options);
  const json::Value good = json::parse(os.str()).at("trials").at(0);
  EXPECT_NO_THROW(trial_from_json(good));

  const auto with = [&good](std::string_view key, std::string_view literal) {
    json::Value v = good;
    for (auto& [name, member] : v.object) {
      if (name == key) member = json::parse(literal);
    }
    return v;
  };
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"n", "4294967299"}, {"messages", "\"lots\""}, {"trial", "-1"},
      {"time_units", "true"}, {"cached", "0"}, {"graph", "7"},
      {"digest", "1.5"}};
  for (const auto& [key, literal] : bad) {
    EXPECT_THROW(trial_from_json(with(key, literal)), CheckError)
        << key << " = " << literal;
  }
  json::Value missing = good;
  std::erase_if(missing.object,
                [](const auto& member) { return member.first == "digest"; });
  EXPECT_THROW(trial_from_json(missing), CheckError);
}

// Satellite (f): a written results file parses with the json.hpp reader and
// carries the schema version, exact seeds, and consistent counts.
TEST(JsonResultSinkTest, RoundTripsThroughJsonReader) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 8;
  plan.grid = {GridAxis{"algo", {"flooding", "ttl:1"}}};
  std::ostringstream os;
  JsonResultSink sink(os, plan, /*jobs=*/3);
  CampaignOptions options;
  options.jobs = 3;
  options.sink = &sink;
  const CampaignResult result = run_campaign(plan, options);

  const json::Value doc = json::parse(os.str());
  EXPECT_EQ(doc.at("schema_version").u64, kResultsSchemaVersion);
  // v2: provenance + digests + store block; v3: no seed_mode/reuse keys.
  EXPECT_EQ(kResultsSchemaVersion, 3u);
  EXPECT_EQ(doc.at("num_seeds").u64, 8u);

  // Schema v2: a provenance block records where and when the run happened.
  const json::Value& prov = doc.at("provenance");
  EXPECT_FALSE(prov.at("hostname").string.empty());
  EXPECT_FALSE(prov.at("commit").string.empty());
  EXPECT_EQ(prov.at("started_at").string.size(), 20u);  // ISO-8601 Zulu
  EXPECT_EQ(prov.at("started_at").string.back(), 'Z');
  EXPECT_EQ(prov.at("shard_index").u64, 0u);
  EXPECT_EQ(prov.at("shard_count").u64, 1u);
  EXPECT_FALSE(prov.at("merged").boolean);
  EXPECT_EQ(doc.at("jobs").u64, 3u);
  EXPECT_EQ(doc.at("prepare_mode").string, "per_trial");  // plan default
  EXPECT_EQ(doc.find("seed_mode"), nullptr);
  EXPECT_EQ(doc.find("reuse"), nullptr);
  EXPECT_EQ(doc.at("base").at("graph").string, "path:16");
  ASSERT_EQ(doc.at("grid").size(), 1u);
  EXPECT_EQ(doc.at("grid").at(std::size_t{0}).at("param").string, "algo");

  const json::Value& trials = doc.at("trials");
  ASSERT_EQ(trials.size(), 16u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    SCOPED_TRACE(i);
    const json::Value& t = trials.at(i);
    EXPECT_EQ(t.at("trial").u64, i);
    // Seeds exceed 2^53; the reader must hand them back as exact u64.
    ASSERT_TRUE(t.at("seed").is_integer);
    EXPECT_EQ(t.at("seed").u64, result.trials[i].trial.spec.seed);
    EXPECT_EQ(t.at("messages").u64, result.trials[i].messages);
    // Schema v2: every ok trial carries its result digest and cache flag.
    ASSERT_TRUE(t.at("digest").is_integer);
    EXPECT_EQ(t.at("digest").u64, result.trials[i].result_digest);
    EXPECT_NE(t.at("digest").u64, 0u);
    EXPECT_FALSE(t.at("cached").boolean);  // no store in this run
  }

  // Schema v2: the summary reports store usage (disabled here).
  const json::Value& store_block = doc.at("summary").at("store");
  EXPECT_FALSE(store_block.at("enabled").boolean);
  EXPECT_EQ(store_block.at("hits").u64, 0u);
  EXPECT_EQ(store_block.at("misses").u64, 0u);

  const json::Value& total = doc.at("summary").at("total");
  EXPECT_EQ(total.at("trials").u64, 16u);
  EXPECT_EQ(total.at("messages").at("count").u64,
            result.total.messages.count());
  EXPECT_DOUBLE_EQ(total.at("messages").at("mean").number,
                   result.total.messages.mean());
  EXPECT_GE(doc.at("timing").at("wall_ms").number, 0.0);
}

}  // namespace
}  // namespace rise::runner
