#include "runner/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "check/scenario.hpp"
#include "runner/progress.hpp"
#include "runner/shard.hpp"
#include "runner/thread_pool.hpp"
#include "store/digest.hpp"
#include "store/result_store.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace rise::runner {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The calling thread's recycled engine storage. Campaign trials run on the
/// lanes of run_lanes — pool threads and the run_campaign caller, which runs
/// one lane itself — so thread-locals give one workspace per lane thread
/// without the pool needing a worker-id API. A pool thread's workspace is
/// freed when the pool is destroyed inside run_campaign; the caller's lives
/// on for its next campaign.
sim::RunWorkspace& worker_workspace() {
  static thread_local sim::RunWorkspace workspace;
  return workspace;
}

/// How a trial obtains and executes its preparation.
struct PreparedPolicy {
  /// Non-null exactly under kSharedConfig: every trial of a configuration
  /// is served one preparation, built from the base seed.
  PreparedConfigCache* cache = nullptr;
  std::uint64_t prepare_seed = 0;  ///< the base seed (used with `cache`)
  std::uint32_t trial_jobs = 1;    ///< intra-trial round chunks (sync runs)
  sim::ChunkExecutor* trial_executor = nullptr;  ///< where chunks run
};

/// The campaign's read-through/write-through connection to the result store
/// (one per run_campaign call; shared by all worker threads).
struct StoreContext {
  store::ResultStore* store = nullptr;
  std::string prepare_tag;  ///< keys every trial of this campaign
  bool serve_hits = false;  ///< false while profiling (records carry no profile)
  int die_after = 0;        ///< fault injection; see CampaignOptions
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<int> executed{0};
};

TrialResult execute_trial(const Trial& trial, bool profile,
                          const PreparedPolicy& policy) {
  TrialResult r;
  r.trial = trial;
  const auto t0 = Clock::now();
  try {
    // Prepare (or fetch) the immutable inputs, then execute with the trial's
    // own seed on this worker's recycled workspace. Under kPerTrial the prep
    // seed IS the trial seed, so this is bit-identical to a run_experiment
    // call per trial.
    obs::Probe probe;
    std::shared_ptr<const app::PreparedExperiment> prepared;
    if (policy.cache != nullptr) {
      // Cached preparations are shared across trials, so no single trial's
      // probe may observe the build (which trial builds first is a
      // scheduling race; attaching its probe would make per-trial profiles
      // nondeterministic). Shared-mode profiles therefore have no
      // setup.graph/instance/advice timers — the cost is amortized away,
      // which is the point.
      app::ExperimentSpec prep_spec = trial.spec;
      prep_spec.seed = policy.prepare_seed;
      prepared = policy.cache->get_or_prepare(prep_spec);
    } else {
      prepared = std::make_shared<const app::PreparedExperiment>(
          app::prepare_experiment(trial.spec, profile ? &probe : nullptr));
    }
    app::RunInstruments instruments;
    if (profile) instruments.probe = &probe;
    instruments.trial_jobs = policy.trial_jobs;
    instruments.trial_executor = policy.trial_executor;
    app::ExperimentReport report = app::execute_prepared(
        *prepared, trial.spec, instruments, &worker_workspace());
    if (profile) {
      r.profile = std::make_shared<const obs::RunProfile>(
          app::take_run_profile(probe, report, trial.spec));
    }
    r.ok = true;
    r.num_nodes = report.num_nodes;
    r.num_edges = report.num_edges;
    r.rho_awk = report.rho_awk;
    r.synchronous = report.synchronous;
    r.all_awake = report.result.all_awake();
    r.awake_count = report.result.awake_count();
    r.messages = report.result.metrics.messages;
    r.bits = report.result.metrics.bits;
    r.time_units = report.result.metrics.time_units();
    r.rounds = report.result.metrics.rounds;
    r.wakeup_span = r.all_awake ? report.result.wakeup_span() : 0;
    r.awake_node_ticks = report.result.awake_node_ticks();
    r.advice_max_bits = report.advice.max_bits;
    r.advice_avg_bits = report.advice.avg_bits;
    // Digest before the result buffers are recycled. A pure function of the
    // trial's inputs — the currency of the shard/resume equivalence tests.
    r.result_digest = check::digest_run(report.result);
    // Everything needed is extracted; hand the per-node result buffers back
    // so the next trial on this worker reuses their capacity.
    worker_workspace().recycle_result(std::move(report.result));
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.wall_ms = ms_between(t0, Clock::now());
  return r;
}

/// execute_trial behind the result store: serve a recorded trial without
/// executing, record an executed one, and honour the die-after fault point.
TrialResult execute_or_fetch(const Trial& trial, bool profile,
                             const PreparedPolicy& policy, StoreContext& sc) {
  if (sc.store == nullptr) return execute_trial(trial, profile, policy);
  if (sc.serve_hits) {
    const store::Digest128 key = store::trial_key(trial.spec, sc.prepare_tag);
    if (const store::TrialRecord* rec =
            sc.store->lookup(key, trial.spec, sc.prepare_tag)) {
      // The outcome, wall_ms included, is the original execution's;
      // from_store tells consumers so.
      TrialResult r;
      static_cast<store::TrialOutcome&>(r) = *rec;
      r.trial = trial;
      r.from_store = true;
      sc.hits.fetch_add(1, std::memory_order_relaxed);
      return r;
    }
  }
  sc.misses.fetch_add(1, std::memory_order_relaxed);
  TrialResult r = execute_trial(trial, profile, policy);
  const app::ExperimentSpec& spec = trial.spec;
  sc.store->append(store::TrialRecord{r, spec.graph, spec.schedule,
                                      spec.algorithm, spec.delay, spec.seed,
                                      sc.prepare_tag});
  if (sc.die_after > 0 &&
      sc.executed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          sc.die_after) {
    // Fault injection: the record above is flushed, then this process dies
    // as abruptly as a machine failure would take it. A restarted worker
    // resumes from exactly this point via the store.
    std::raise(SIGKILL);
  }
  return r;
}

void accumulate(ConfigStats& stats, const TrialResult& r) {
  ++stats.trials;
  if (!r.ok) {
    ++stats.errors;
    return;
  }
  if (!r.all_awake) {
    ++stats.failures;
    return;
  }
  for_each_sample(stats, [&r](const char*, SampleStats& s, auto field,
                              const char*) {
    s.add(static_cast<double>(r.*field));
  });
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t trial_index) {
  // One SplitMix64 step over a state that folds the base seed with the
  // trial index; the odd multiplier spreads adjacent indices across the
  // whole state space. Distinct from the mix_seed(seed, 0xA..0xD) streams
  // run_experiment derives internally, so campaign seeds never collide with
  // a trial's own sub-streams by construction of the tag.
  std::uint64_t state =
      base_seed ^ ((trial_index + 0x51CEB00Dull) * 0xD1B54A32D192ED03ull);
  return splitmix64(state);
}

GridAxis parse_grid_axis(const std::string& text) {
  const auto eq = text.find('=');
  RISE_CHECK_MSG(eq != std::string::npos && eq > 0,
                 "grid axis '" << text << "' is not PARAM=a,b,c");
  GridAxis axis;
  axis.param = text.substr(0, eq);
  axis.values = split(text.substr(eq + 1), ',');
  for (const std::string& value : axis.values) {
    RISE_CHECK_MSG(!value.empty(),
                   "grid axis '" << text << "' has an empty value");
  }
  // Validate the param name eagerly so a typo fails before any trial runs.
  app::ExperimentSpec probe;
  apply_grid_param(probe, axis.param, axis.values.front());
  return axis;
}

void apply_grid_param(app::ExperimentSpec& spec, const std::string& param,
                      const std::string& value) {
  if (param == "graph") {
    spec.graph = value;
  } else if (param == "schedule") {
    spec.schedule = value;
  } else if (param == "algo" || param == "algorithm") {
    spec.algorithm = value;
  } else if (param == "delay") {
    spec.delay = value;
  } else {
    RISE_CHECK_MSG(false, "unknown grid param '"
                              << param
                              << "' (expected graph|schedule|algo|delay)");
  }
}

std::size_t config_count(const CampaignPlan& plan) {
  std::size_t count = 1;
  for (const auto& axis : plan.grid) {
    RISE_CHECK_MSG(!axis.values.empty(),
                   "grid axis '" << axis.param << "' has no values");
    count *= axis.values.size();
  }
  return count;
}

namespace {

/// The grid-substituted spec of config `config_index` (seed = the base
/// seed). Shared by expand_trials and aggregate_campaign so the shard merge
/// path re-derives exactly the specs the trials were expanded from.
app::ExperimentSpec config_spec_at(const CampaignPlan& plan,
                                   std::size_t config_index) {
  app::ExperimentSpec spec = plan.base;
  // Decode the config index in mixed radix, last grid axis fastest.
  std::size_t rem = config_index;
  for (std::size_t a = plan.grid.size(); a-- > 0;) {
    const GridAxis& axis = plan.grid[a];
    apply_grid_param(spec, axis.param, axis.values[rem % axis.values.size()]);
    rem /= axis.values.size();
  }
  return spec;
}

}  // namespace

std::vector<Trial> expand_trials(const CampaignPlan& plan) {
  RISE_CHECK_MSG(plan.num_seeds >= 1, "campaign needs at least one seed");
  const std::size_t configs = config_count(plan);
  std::vector<Trial> trials;
  trials.reserve(configs * plan.num_seeds);
  for (std::size_t c = 0; c < configs; ++c) {
    const app::ExperimentSpec config_spec = config_spec_at(plan, c);
    for (std::size_t s = 0; s < plan.num_seeds; ++s) {
      Trial t;
      t.index = c * plan.num_seeds + s;
      t.config_index = c;
      t.seed_index = s;
      t.spec = config_spec;
      t.spec.seed = trial_seed(plan.base.seed, t.index);
      trials.push_back(std::move(t));
    }
  }
  return trials;
}

CampaignResult run_campaign(const CampaignPlan& plan,
                            const CampaignOptions& options) {
  std::vector<Trial> trials = expand_trials(plan);
  if (!options.shard.whole_campaign()) {
    trials = shard_trials(trials, options.shard);
  }

  const bool shared_config = plan.prepare_mode == PrepareMode::kSharedConfig;
  PreparedConfigCache cache;
  PreparedPolicy policy;
  if (shared_config) policy.cache = &cache;
  policy.prepare_seed = plan.base.seed;

  StoreContext sc;
  sc.store = options.store;
  // A stored record carries no RunProfile, so a profiled campaign cannot be
  // served from the store — it still writes through, warming the store for
  // later unprofiled runs.
  sc.serve_hits = !plan.profile;
  sc.die_after = options.die_after;
  if (sc.store != nullptr) {
    sc.prepare_tag = shared_config ? store::prepare_tag_shared(plan.base.seed)
                                   : store::prepare_tag_per_trial();
  }

  CampaignResult result;
  result.jobs =
      options.jobs == 0 ? ThreadPool::hardware_threads() : options.jobs;
  // Slots are positional over this (possibly shard-filtered) trial subset;
  // each TrialResult keeps its global index in trial.index.
  result.trials.resize(trials.size());

  const auto t0 = Clock::now();
  {
    ProgressReporter progress(trials.size(), options.progress);
    // The pool carries jobs x trial_jobs threads, but only `jobs` lanes run
    // trials (the caller runs one of them); with trial_jobs > 1 the spare
    // threads serve each trial's round chunks (ThreadPool::run_chunks).
    const std::uint32_t trial_jobs =
        std::max<std::uint32_t>(1, options.trial_jobs);
    ThreadPool pool(thread_budget(result.jobs, trial_jobs));
    PoolChunkExecutor executor(&pool);
    if (trial_jobs > 1) {
      policy.trial_jobs = trial_jobs;
      policy.trial_executor = &executor;
    }
    // Each slot is written by exactly one lane, and neither vector is
    // resized while the lanes run.
    run_lanes(pool, result.jobs, trials.size(), [&](std::size_t i) {
      result.trials[i] = execute_or_fetch(trials[i], plan.profile, policy, sc);
      progress.tick();
    });
    progress.finish();
  }
  result.wall_ms = ms_between(t0, Clock::now());
  result.store_hits = sc.hits.load(std::memory_order_relaxed);
  result.store_misses = sc.misses.load(std::memory_order_relaxed);
  // Store-served trials prepare nothing; only executed ones count.
  const std::uint64_t executed =
      sc.store != nullptr ? result.store_misses
                          : static_cast<std::uint64_t>(trials.size());
  result.prepared_configs = policy.cache != nullptr ? cache.misses() : executed;
  result.prepared_cache_hits = policy.cache != nullptr ? cache.hits() : 0;
  result.trials_per_sec =
      result.wall_ms > 0.0
          ? static_cast<double>(trials.size()) / (result.wall_ms / 1000.0)
          : 0.0;

  aggregate_campaign(plan, result);

  if (options.sink != nullptr) {
    for (const TrialResult& r : result.trials) options.sink->trial(r);
    options.sink->summary(result);
  }
  return result;
}

void aggregate_campaign(const CampaignPlan& plan, CampaignResult& result) {
  // Aggregate in result.trials order — the caller guarantees trial-index
  // order, fixed regardless of which worker finished first — so SampleStats
  // sees the same insertion sequence for every jobs value, shard split, and
  // merge path.
  result.configs.assign(config_count(plan), ConfigStats{});
  result.total = ConfigStats{};
  result.profile = obs::ProfileAggregate{};
  for (std::size_t c = 0; c < result.configs.size(); ++c) {
    result.configs[c].spec = config_spec_at(plan, c);
  }
  for (const TrialResult& r : result.trials) {
    RISE_CHECK_MSG(r.trial.config_index < result.configs.size(),
                   "trial " << r.trial.index << " names config "
                            << r.trial.config_index << " of a plan with only "
                            << result.configs.size());
    accumulate(result.configs[r.trial.config_index], r);
    accumulate(result.total, r);
    if (r.profile != nullptr) result.profile.merge(*r.profile);
  }
  result.total.spec = plan.base;
}

std::string format_campaign(const CampaignResult& result) {
  std::ostringstream os;
  os << "campaign  : " << result.configs.size() << " config(s) x "
     << (result.configs.empty() || result.configs[0].trials == 0
             ? 0
             : result.configs[0].trials)
     << " seed(s) = " << result.trials.size() << " trials, jobs "
     << result.jobs << "\n";
  const bool multi = result.configs.size() > 1;
  for (std::size_t c = 0; c < result.configs.size(); ++c) {
    const ConfigStats& config = result.configs[c];
    if (multi) {
      os << "config " << c << "  : graph=" << config.spec.graph
         << " schedule=" << config.spec.schedule
         << " algo=" << config.spec.algorithm
         << " delay=" << config.spec.delay << "\n";
    }
    os << "  runs: " << config.trials << " (" << config.failures
       << " incomplete, " << config.errors << " errors)\n";
    for_each_sample(config, [&os](const char*, const SampleStats& s, auto,
                                  const char* label) {
      if (label == nullptr || s.count() == 0) return;
      os << "  " << label << ": mean " << s.mean() << "  sd " << s.stddev()
         << "  min " << s.min() << "  median " << s.median() << "  max "
         << s.max() << "\n";
    });
    if (config.errors > 0) {
      // Surface one representative error so a misconfigured campaign is
      // diagnosable from the summary alone.
      for (const TrialResult& r : result.trials) {
        if (r.trial.config_index == c && !r.ok) {
          os << "  first error: " << r.error << "\n";
          break;
        }
      }
    }
  }
  if (multi) {
    os << "total     : " << result.total.trials << " runs ("
       << result.total.failures << " incomplete, " << result.total.errors
       << " errors)\n";
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "wall      : %.1f ms (%.1f trials/s)\n",
                result.wall_ms, result.trials_per_sec);
  os << buf;
  return os.str();
}

}  // namespace rise::runner
