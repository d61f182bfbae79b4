// Tests for the shard planner and the store-backed campaign paths
// (runner/shard + CampaignOptions::shard/store): the trial-index partition
// is exact for every shard count, per-trial seeds and digests
// are pure functions of the trial index (so any shard split reproduces the
// single-process digest stream bit for bit), the result store serves
// repeated and resumed campaigns without re-executing, and the merged
// aggregates equal the single-process algebra exactly.
#include "runner/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profile.hpp"
#include "runner/campaign.hpp"
#include "runner/result_sink.hpp"
#include "store/digest.hpp"
#include "store/result_store.hpp"
#include "support/check.hpp"

namespace rise::runner {
namespace {

namespace fs = std::filesystem;

std::string test_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("rise_shard_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// 2 configs x 7 seeds = 14 cheap trials; 7 and 2 divide nothing evenly, so
/// shard counts 2 and 7 both exercise ragged partitions.
CampaignPlan small_plan() {
  CampaignPlan plan;
  plan.base.graph = "path:8";
  plan.base.schedule = "single";
  plan.base.algorithm = "flooding";
  plan.base.delay = "unit";
  plan.base.seed = 5;
  plan.grid.push_back(parse_grid_axis("algo=flooding,ranked_dfs"));
  plan.num_seeds = 7;
  return plan;
}

ShardSpec make_shard(std::uint32_t index, std::uint32_t count) {
  ShardSpec s;
  s.index = index;
  s.count = count;
  return s;
}

TEST(ParseShardSpec, AcceptsKOverN) {
  const ShardSpec s = parse_shard_spec("2/8");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 8u);
  EXPECT_FALSE(s.whole_campaign());
  EXPECT_TRUE(parse_shard_spec("0/1").whole_campaign());
}

TEST(ParseShardSpec, RejectsMalformedAndOutOfRange) {
  EXPECT_THROW(parse_shard_spec("8/8"), CheckError);
  EXPECT_THROW(parse_shard_spec("9/8"), CheckError);
  EXPECT_THROW(parse_shard_spec("3"), CheckError);
  EXPECT_THROW(parse_shard_spec("/2"), CheckError);
  EXPECT_THROW(parse_shard_spec("2/"), CheckError);
  EXPECT_THROW(parse_shard_spec("a/b"), CheckError);
  EXPECT_THROW(parse_shard_spec("1/0"), CheckError);
}

// strtoul would take a sign or leading blanks and read 2^32 + 1 as a count
// the uint32 field then truncates to 1 — a whole campaign under a shard tag.
TEST(ParseShardSpec, TakesDecimalDigitsOnlyAndNoWrappedCount) {
  EXPECT_THROW(parse_shard_spec("1/4294967297"), CheckError);
  EXPECT_THROW(parse_shard_spec("1/18446744073709551617"), CheckError);
  EXPECT_THROW(parse_shard_spec("+1/3"), CheckError);
  EXPECT_THROW(parse_shard_spec("1/+3"), CheckError);
  EXPECT_THROW(parse_shard_spec("-1/3"), CheckError);
  EXPECT_THROW(parse_shard_spec(" 1/3"), CheckError);
  EXPECT_THROW(parse_shard_spec("1/ 3"), CheckError);
  EXPECT_THROW(parse_shard_spec("1/3 "), CheckError);
  EXPECT_THROW(parse_shard_spec("1/3/4"), CheckError);
  const ShardSpec widest = parse_shard_spec("4294967294/4294967295");
  EXPECT_EQ(widest.index, 4294967294u);
  EXPECT_EQ(widest.count, 4294967295u);
}

TEST(ShardOwns, EveryIndexBelongsToExactlyOneShard) {
  for (const std::size_t total : {std::size_t{1}, std::size_t{10},
                                  std::size_t{14}, std::size_t{29}}) {
    for (const std::uint32_t count : {1u, 2u, 3u, 7u, 16u}) {
      for (std::size_t i = 0; i < total; ++i) {
        int owners = 0;
        for (std::uint32_t k = 0; k < count; ++k) {
          owners += shard_owns(make_shard(k, count), i);
        }
        EXPECT_EQ(owners, 1) << "total " << total << " count " << count
                             << " index " << i;
      }
    }
  }
}

TEST(ShardTrials, DisjointUnionReassemblesTheCampaign) {
  const CampaignPlan plan = small_plan();
  const std::vector<Trial> all = expand_trials(plan);
  ASSERT_EQ(all.size(), 14u);
  for (const std::uint32_t count : {1u, 2u, 7u}) {
    std::vector<Trial> reassembled;
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::vector<Trial> owned = shard_trials(all, make_shard(k, count));
      // Order within a shard is trial-index order.
      for (std::size_t i = 1; i < owned.size(); ++i) {
        EXPECT_LT(owned[i - 1].index, owned[i].index);
      }
      reassembled.insert(reassembled.end(), owned.begin(), owned.end());
    }
    ASSERT_EQ(reassembled.size(), all.size());
    std::sort(reassembled.begin(), reassembled.end(),
              [](const Trial& a, const Trial& b) { return a.index < b.index; });
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(reassembled[i].index, all[i].index);
      EXPECT_EQ(reassembled[i].config_index, all[i].config_index);
      EXPECT_EQ(reassembled[i].spec.seed, all[i].spec.seed);
      EXPECT_EQ(reassembled[i].spec.algorithm, all[i].spec.algorithm);
    }
  }
}

TEST(ShardTrials, SeedsAndKeysArePureFunctionsOfTheIndex) {
  const CampaignPlan plan = small_plan();
  const std::vector<Trial> a = expand_trials(plan);
  const std::vector<Trial> b = expand_trials(plan);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.seed, b[i].spec.seed);
    EXPECT_EQ(a[i].spec.seed, trial_seed(plan.base.seed, i));
    // The store key derives from the spec alone, so it is equally pure.
    EXPECT_EQ(store::trial_key(a[i].spec, store::prepare_tag_per_trial()),
              store::trial_key(b[i].spec, store::prepare_tag_per_trial()));
  }
}

/// Every per-trial value a results document records apart from the cache
/// flag, wall clock and embedded profile: identity, ok/error and the whole
/// store::for_each_outcome_field list, as "name=value" strings.
std::vector<std::string> trial_record(const TrialResult& r) {
  std::vector<std::string> out = {
      "trial=" + std::to_string(r.trial.index),
      "config=" + std::to_string(r.trial.config_index),
      "seed=" + std::to_string(r.trial.spec.seed),
      "spec=" + r.trial.spec.graph + " " + r.trial.spec.schedule + " " +
          r.trial.spec.algorithm + " " + r.trial.spec.delay,
      "ok=" + std::to_string(r.ok), "error=" + r.error};
  store::for_each_outcome_field(r, [&out](const char* name, const auto& v) {
    std::ostringstream os;
    os.precision(17);
    os << name << '=' << v;
    out.push_back(os.str());
  });
  return out;
}

/// The results document's summary block as JsonResultSink writes it, with
/// the store counters and timing zeroed: they depend on cache state and the
/// clock, not on the outcomes.
std::string outcome_summary(const CampaignPlan& plan, CampaignResult result) {
  result.store_hits = 0;
  result.store_misses = 0;
  result.wall_ms = 0.0;
  result.trials_per_sec = 0.0;
  result.jobs = 1;
  std::ostringstream out;
  JsonResultSink sink(out, plan, 1, SinkOptions{});
  sink.summary(result);
  return out.str();
}

/// Compares every deterministic per-trial field and the summary block.
void expect_equivalent(const CampaignPlan& plan, const CampaignResult& actual,
                       const CampaignResult& reference) {
  ASSERT_EQ(actual.trials.size(), reference.trials.size());
  for (std::size_t i = 0; i < reference.trials.size(); ++i) {
    EXPECT_EQ(trial_record(actual.trials[i]), trial_record(reference.trials[i]));
  }
  EXPECT_EQ(outcome_summary(plan, actual), outcome_summary(plan, reference));
}

TEST(ShardedCampaign, AnyShardSplitReproducesTheUnshardedDigestStream) {
  const CampaignPlan plan = small_plan();
  const CampaignResult reference = run_campaign(plan);
  ASSERT_EQ(reference.trials.size(), 14u);

  for (const std::uint32_t count : {2u, 7u}) {
    // Run every shard as its own campaign, as worker processes would.
    CampaignResult merged;
    merged.trials.assign(reference.trials.size(), TrialResult{});
    std::vector<bool> seen(reference.trials.size(), false);
    for (std::uint32_t k = 0; k < count; ++k) {
      CampaignOptions options;
      options.shard = make_shard(k, count);
      const CampaignResult part = run_campaign(plan, options);
      for (const TrialResult& r : part.trials) {
        ASSERT_LT(r.trial.index, seen.size());
        ASSERT_FALSE(seen[r.trial.index]);
        seen[r.trial.index] = true;
        merged.trials[r.trial.index] = r;
      }
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }));
    aggregate_campaign(plan, merged);
    expect_equivalent(plan, merged, reference);
  }
}

TEST(StoreBackedCampaign, SecondRunIsServedEntirelyFromTheStore) {
  const CampaignPlan plan = small_plan();
  const CampaignResult reference = run_campaign(plan);
  const std::string dir = test_dir("second_run");

  // Four workers look up and append concurrently in both passes.
  {
    store::ResultStore store(dir, "solo");
    CampaignOptions options;
    options.jobs = 4;
    options.store = &store;
    const CampaignResult cold = run_campaign(plan, options);
    EXPECT_EQ(cold.store_hits, 0u);
    EXPECT_EQ(cold.store_misses, 14u);
    expect_equivalent(plan, cold, reference);
  }
  // A fresh process (fresh store object) serves everything from disk.
  store::ResultStore store(dir, "solo");
  CampaignOptions options;
  options.jobs = 4;
  options.store = &store;
  const CampaignResult warm = run_campaign(plan, options);
  EXPECT_EQ(warm.store_hits, 14u);
  EXPECT_EQ(warm.store_misses, 0u);
  EXPECT_EQ(warm.prepared_configs, 0u) << "cache hits must not prepare";
  for (const TrialResult& r : warm.trials) EXPECT_TRUE(r.from_store);
  expect_equivalent(plan, warm, reference);
}

TEST(StoreBackedCampaign, InterruptedCampaignResumesWhereItStopped) {
  const CampaignPlan plan = small_plan();
  const CampaignResult reference = run_campaign(plan);
  const std::string dir = test_dir("resume");

  // "Crash" after one shard's worth of work: only shard 0 of 2 ran.
  std::size_t completed = 0;
  {
    store::ResultStore store(dir, "shard-0");
    CampaignOptions options;
    options.shard = make_shard(0, 2);
    options.store = &store;
    completed = run_campaign(plan, options).trials.size();
    EXPECT_GT(completed, 0u);
  }
  // The resumed full campaign re-executes exactly the missing trials.
  store::ResultStore store(dir, "solo");
  CampaignOptions options;
  options.store = &store;
  const CampaignResult resumed = run_campaign(plan, options);
  EXPECT_EQ(resumed.store_hits, completed);
  EXPECT_EQ(resumed.store_misses, 14u - completed);
  expect_equivalent(plan, resumed, reference);
}

TEST(StoreBackedCampaign, ProfiledRunsBypassLookupsButStillAppend) {
  CampaignPlan plan = small_plan();
  const std::string dir = test_dir("profiled");
  {
    store::ResultStore store(dir, "solo");
    CampaignOptions options;
    options.store = &store;
    plan.profile = true;
    const CampaignResult profiled = run_campaign(plan, options);
    EXPECT_EQ(profiled.store_hits, 0u);
    EXPECT_EQ(profiled.store_misses, 14u);
    EXPECT_EQ(profiled.profile.trials, 14u);
  }
  // The profiled run warmed the store for unprofiled runs.
  store::ResultStore store(dir, "solo");
  CampaignOptions options;
  options.store = &store;
  plan.profile = false;
  const CampaignResult warm = run_campaign(plan, options);
  EXPECT_EQ(warm.store_hits, 14u);
  EXPECT_EQ(warm.store_misses, 0u);
}

// The orchestrator's merge path end to end: workers embed each profiled
// trial's run_profile in their results documents, the orchestrator parses
// them back (obs::profile_from_json) and re-merges them. A 3-worker split
// with one worker killed mid-campaign must reproduce the in-process digests
// and the profiled single-process aggregate byte for byte.
TEST(ShardCampaign, ProfiledWorkersMergeToTheSingleProcessBytes) {
  CampaignPlan plan = small_plan();
  plan.grid = {parse_grid_axis("algo=flooding,fast_wakeup")};
  plan.profile = true;
  const CampaignResult reference = run_campaign(plan);

  ShardCampaignOptions options;
  options.exe = RISE_CLI_PATH;
  options.store_dir = test_dir("processes");
  options.workers = 3;
  options.profile = true;
  options.die_after = 2;
  options.die_worker = 1;
  const ShardCampaignReport report = run_shard_campaign(plan, options);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.restarts, 1u);
  ASSERT_EQ(report.merged.trials.size(), reference.trials.size());
  for (std::size_t i = 0; i < reference.trials.size(); ++i) {
    EXPECT_EQ(report.merged.trials[i].result_digest,
              reference.trials[i].result_digest)
        << "trial " << i;
  }
  EXPECT_EQ(report.merged.profile.trials, reference.trials.size());
  EXPECT_EQ(obs::aggregate_to_json(report.merged.profile),
            obs::aggregate_to_json(reference.profile));
}

// Unprofiled, so workers look trials up in the store (profiled runs bypass
// lookups): a 3-worker campaign with one worker killed and resumed must
// reproduce the --jobs 1 reference, and a re-run against the same store
// must serve every trial from it with the same outcomes.
TEST(ShardCampaign, KilledWorkerResumesAndAWarmRerunIsServedFromTheStore) {
  CampaignPlan plan = small_plan();
  plan.grid = {parse_grid_axis("algo=flooding,ranked_dfs,fast_wakeup")};
  const CampaignResult reference = run_campaign(plan);
  ASSERT_EQ(reference.trials.size(), 21u);

  ShardCampaignOptions options;
  options.exe = RISE_CLI_PATH;
  options.store_dir = test_dir("resume_rerun");
  options.workers = 3;
  options.jobs_per_worker = 2;
  options.die_after = 2;
  options.die_worker = 1;
  const ShardCampaignReport resumed = run_shard_campaign(plan, options);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.restarts, 1u);
  expect_equivalent(plan, resumed.merged, reference);

  options.die_after = 0;
  const ShardCampaignReport rerun = run_shard_campaign(plan, options);
  ASSERT_TRUE(rerun.ok) << rerun.error;
  EXPECT_EQ(rerun.restarts, 0u);
  EXPECT_EQ(rerun.store_hits, reference.trials.size());
  EXPECT_EQ(rerun.store_misses, 0u);
  for (const TrialResult& r : rerun.merged.trials) {
    EXPECT_TRUE(r.from_store) << "trial " << r.trial.index;
    EXPECT_TRUE(r.ok) << "trial " << r.trial.index << ": " << r.error;
    EXPECT_NE(r.result_digest, 0u) << "trial " << r.trial.index;
  }
  expect_equivalent(plan, rerun.merged, reference);
}

TEST(WorkerCommand, SerializesThePlanAndShardIdentity) {
  const CampaignPlan plan = small_plan();
  ShardCampaignOptions options;
  options.exe = "/usr/bin/rise_cli";
  options.store_dir = "/tmp/store";
  options.workers = 3;
  options.jobs_per_worker = 2;
  options.die_after = 4;
  options.die_worker = 1;

  const std::vector<std::string> cmd =
      worker_command(plan, options, 1, /*first_launch=*/true);
  auto has = [&cmd](const std::string& token) {
    return std::find(cmd.begin(), cmd.end(), token) != cmd.end();
  };
  EXPECT_EQ(cmd.front(), "/usr/bin/rise_cli");
  EXPECT_TRUE(has("--shard"));
  EXPECT_TRUE(has("1/3"));
  EXPECT_TRUE(has("--store"));
  EXPECT_TRUE(has("/tmp/store"));
  EXPECT_TRUE(has("--seeds"));
  EXPECT_TRUE(has("7"));
  EXPECT_TRUE(has("--grid"));
  EXPECT_TRUE(has("algo=flooding,ranked_dfs"));
  EXPECT_TRUE(has("--no-progress"));
  EXPECT_TRUE(has("--die-after"));
  EXPECT_TRUE(has("4"));

  // Fault injection arms only the designated worker, only on first launch.
  const std::vector<std::string> other =
      worker_command(plan, options, 2, /*first_launch=*/true);
  EXPECT_EQ(std::find(other.begin(), other.end(), "--die-after"), other.end());
  const std::vector<std::string> relaunch =
      worker_command(plan, options, 1, /*first_launch=*/false);
  EXPECT_EQ(std::find(relaunch.begin(), relaunch.end(), "--die-after"),
            relaunch.end());
}

}  // namespace
}  // namespace rise::runner
