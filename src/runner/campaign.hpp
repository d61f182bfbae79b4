// Parallel experiment campaigns: expand an app::ExperimentSpec × seed range
// × parameter grid into independent trials, execute them on `jobs` lanes of
// a ThreadPool (runner::run_lanes), and aggregate the results
// deterministically.
//
// Determinism contract: each trial's RNG seed is derived via SplitMix64 from
// (base_seed, trial_index) — never from thread identity or completion order
// — and per-trial results are collected into a slot indexed by trial and
// aggregated in trial-index order after the lanes return. A campaign
// therefore produces bit-identical per-trial records and aggregate
// statistics for any --jobs value and any scheduling interleaving; only the
// wall-clock fields differ (and those are kept out of the aggregates).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "runner/prepared.hpp"
#include "store/result_store.hpp"
#include "support/stats.hpp"

namespace rise::runner {

/// SplitMix64-derived seed for one trial; pure function of its arguments.
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t trial_index);

/// One axis of the parameter grid: the spec field named `param` (one of
/// "graph" | "schedule" | "algo" | "delay") takes each of `values` in turn.
struct GridAxis {
  std::string param;
  std::vector<std::string> values;
};

/// Parses "PARAM=a,b,c" (the rise_cli --grid argument). Values must be
/// non-empty and comma-free; the spec grammars themselves never use commas
/// except in the rare set:a,b,c schedule, which a grid cannot sweep.
GridAxis parse_grid_axis(const std::string& text);

/// Substitutes one grid value into the spec; CheckError on unknown param.
void apply_grid_param(app::ExperimentSpec& spec, const std::string& param,
                      const std::string& value);

struct Trial {
  std::size_t index = 0;  ///< global trial index (config-major, seed-minor)
  std::size_t config_index = 0;
  std::size_t seed_index = 0;
  app::ExperimentSpec spec;  ///< grid-substituted; seed = the derived seed
};

/// One finished trial: which trial it was, its outcome (the fields shared
/// with the result store and the results JSON), and how it was obtained.
struct TrialResult : store::TrialOutcome {
  Trial trial;

  /// True when this result was served from the content-addressed result
  /// store instead of being executed (see CampaignOptions::store).
  bool from_store = false;

  /// Per-run observability profile, populated only when CampaignPlan::profile
  /// is set. shared_ptr keeps TrialResult cheap to copy; null otherwise.
  /// Timer wall-clock fields inside are nondeterministic, but everything the
  /// aggregate consumes is not.
  std::shared_ptr<const obs::RunProfile> profile;
};

/// Aggregates over the successful trials of one grid config (or of the
/// whole campaign). A trial that runs but leaves nodes asleep is a failure;
/// a trial that throws is an error; neither contributes samples.
struct ConfigStats {
  app::ExperimentSpec spec;  ///< grid-substituted; seed = the base seed
  std::size_t trials = 0;
  std::size_t failures = 0;
  std::size_t errors = 0;
  SampleStats messages;
  SampleStats bits;
  SampleStats time_units;
  SampleStats wakeup_span;
  SampleStats awake_node_ticks;
};

/// Calls f(name, sample, field, label) for each sample of `stats`, in the
/// order every consumer lays them out: `name` is the results-JSON key,
/// `field` the TrialOutcome member a successful trial adds, and `label` the
/// format_campaign row label (nullptr: not printed).
template <typename Stats, typename F>
void for_each_sample(Stats& stats, F&& f) {
  using O = store::TrialOutcome;
  f("messages", stats.messages, &O::messages, "messages ");
  f("bits", stats.bits, &O::bits, nullptr);
  f("time_units", stats.time_units, &O::time_units, "time     ");
  f("wakeup_span", stats.wakeup_span, &O::wakeup_span, "wake span");
  f("awake_node_ticks", stats.awake_node_ticks, &O::awake_node_ticks, nullptr);
}

struct CampaignResult {
  std::vector<TrialResult> trials;  ///< trial-index order
  std::vector<ConfigStats> configs;
  ConfigStats total;
  std::size_t jobs = 1;       ///< resolved worker count
  double wall_ms = 0.0;       ///< whole-campaign wall clock
  double trials_per_sec = 0.0;

  /// Merged profile across all profiled trials, in trial-index order (so
  /// its SampleStats see a fixed insertion sequence for any --jobs value).
  /// Empty (trials == 0) unless CampaignPlan::profile was set.
  obs::ProfileAggregate profile;

  /// Preparations actually built (cache misses under kSharedConfig; one per
  /// executed trial otherwise).
  std::uint64_t prepared_configs = 0;
  /// Trials served by an already-built preparation (kSharedConfig only; 0
  /// otherwise).
  std::uint64_t prepared_cache_hits = 0;

  /// Result-store traffic (0 unless CampaignOptions::store was set): trials
  /// served from the store vs executed and appended to it.
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
};

/// Observer of a finished campaign. trial() is invoked once per trial in
/// strictly increasing trial-index order (after the pool has drained, on the
/// caller's thread), then summary() once.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void trial(const TrialResult& result) = 0;
  virtual void summary(const CampaignResult& result) = 0;
};

struct CampaignPlan {
  app::ExperimentSpec base;
  std::vector<GridAxis> grid;  ///< cartesian product, last axis fastest
  std::size_t num_seeds = 1;

  /// Attach an obs::Probe to every trial and merge the resulting RunProfiles
  /// into CampaignResult::profile. The probe observes without perturbing, so
  /// profiled trials produce the same metrics and digests as unprofiled ones.
  bool profile = false;

  /// Where each trial's immutable inputs come from (see runner/prepared.hpp).
  /// kSharedConfig changes trial semantics (one topology per configuration,
  /// built once and served to every trial of it from a PreparedConfigCache);
  /// kPerTrial preserves legacy digests exactly. Either way a trial executes
  /// on its worker's recycled engine workspace, which never changes results.
  PrepareMode prepare_mode = PrepareMode::kPerTrial;
};

/// One shard of an N-way round-robin trial-index split: shard k owns the
/// trials whose index % count == k, which interleaves configs across
/// workers (see runner/shard.hpp for the planner and the multi-process
/// orchestrator built on top).
struct ShardSpec {
  std::uint32_t index = 0;  ///< in [0, count)
  std::uint32_t count = 1;  ///< 1 = the whole campaign (the default)

  bool whole_campaign() const { return count <= 1; }
};

struct CampaignOptions {
  std::size_t jobs = 1;        ///< concurrent trials; 0 = all hardware threads
  bool progress = false;       ///< completed/total + trials/s + ETA on stderr
  ResultSink* sink = nullptr;  ///< optional observer (e.g. JsonResultSink)

  /// Intra-trial parallelism (synchronous runs only): each trial steps its
  /// rounds in this many chunks on the campaign pool. The pool is sized
  /// jobs x trial_jobs (runner::thread_budget; CheckError on overflow) and
  /// runs the trials on `jobs` lanes, so at most `jobs` trials are in
  /// flight and busy threads never exceed --jobs x --trial-jobs. Results
  /// are bit-identical for any value; asynchronous trials ignore it.
  std::uint32_t trial_jobs = 1;

  /// Execute only this shard's trials (global trial indices are preserved
  /// in the results). The default runs the whole campaign.
  ShardSpec shard;

  /// Content-addressed trial cache (src/store). When set, a trial whose key
  /// has a record is served from the store without executing; every
  /// executed trial is appended. Profiled campaigns bypass lookups (a cached
  /// record has no RunProfile to serve) but still append. Serving from the
  /// store never changes results — the record holds the trial's whole
  /// TrialOutcome, digest included.
  store::ResultStore* store = nullptr;

  /// Fault injection for resume tests (0 = off): after this many executed
  /// (store-miss) trials have been recorded, the process SIGKILLs itself —
  /// a deterministic stand-in for a worker crashing mid-campaign.
  int die_after = 0;
};

/// Number of grid configurations (product of axis sizes; 1 with no grid).
std::size_t config_count(const CampaignPlan& plan);

/// The full trial list in index order. CheckError on an invalid grid.
std::vector<Trial> expand_trials(const CampaignPlan& plan);

/// Runs the campaign. Per-trial exceptions are captured into TrialResult;
/// plan-level errors (bad grid axis, zero seeds) throw.
CampaignResult run_campaign(const CampaignPlan& plan,
                            const CampaignOptions& options = {});

/// Rebuilds result.configs / result.total / result.profile from
/// result.trials, aggregating in vector order (the caller guarantees that
/// is trial-index order). Shared by run_campaign and the shard merge path
/// (runner/shard.cpp) so a merged N-shard campaign aggregates with exactly
/// the single-process algebra. Config specs are re-derived from the plan,
/// so configs whose trials live on other shards still carry their spec.
void aggregate_campaign(const CampaignPlan& plan, CampaignResult& result);

/// Human-readable multi-line summary (per-config and total stats).
std::string format_campaign(const CampaignResult& result);

}  // namespace rise::runner
