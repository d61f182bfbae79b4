// perfbench: one workload of the wake-up simulator's benchmark per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out RAW.json --work DIR
//
// Drives the simulator only through the entry points rise_cli uses
// (runner::run_campaign, app::prepare_experiment, app::execute_prepared,
// store::ResultStore), checks every trial, and writes a raw document of
// per-trial times, set-up times, check outcomes and (with --trace 1) spans.
// Every timed sample (trial, campaign pass, set-up) carries the time of the
// host-speed reference (reference.hpp) measured right before it. run.py
// turns that document into metrics; perfbench/README.md describes the
// workloads and the layer map.
//
// With --trace 1 the timed budget is split: the first half runs untraced
// (the baseline for obs.trace_overhead and the allocation count), the
// second half runs with spans and obs::Probe profiles attached.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "app/spec.hpp"
#include "check/scenario.hpp"
#include "graph/cache.hpp"
#include "obs/probe.hpp"
#include "runner/campaign.hpp"
#include "runner/result_sink.hpp"
#include "runner/thread_pool.hpp"
#include "store/digest.hpp"
#include "store/result_store.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "reference.hpp"
#include "trace.hpp"

namespace {

// Operator-new counter for sim.warm_allocs. Counting is switched on only
// around the untraced half of a traced run, so the untraced end-to-end runs
// never touch the shared counter.
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace rise;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Set-up is repeated this many times per run; run.py reports the median.
constexpr int kSetupReps = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string work;
};

/// One timed trial (or one campaign pass): a row name, the algorithm family
/// and named numeric fields.
struct Record {
  std::string row;
  std::string family;
  bool traced = false;
  std::vector<std::pair<std::string, double>> fields;
  /// Campaign passes: every trial's wall time, by algorithm family.
  std::map<std::string, std::vector<double>> walls;

  void set(const char* key, double value) { fields.emplace_back(key, value); }
};

struct Check {
  std::string name;
  std::uint64_t compared = 0;
  std::uint64_t mismatched = 0;
};

/// Everything one workload process reports.
struct Run {
  explicit Run(const Options& o) : opt(o), tracer(o.trace) {}

  Options opt;
  Tracer tracer;
  perfbench::Reference reference;
  std::vector<double> setup_s;
  std::vector<double> setup_ref_ms;  ///< reference time before each set-up
  double cold_trial_ms = 0.0;
  std::vector<Record> prepares;  ///< obs::Probe set-up timers per prepare
  std::vector<Record> trials;
  std::vector<Record> passes;
  std::vector<Check> checks;
  std::vector<std::uint64_t> digests;  ///< canonical order, for the fold
  std::vector<std::pair<std::string, double>> direct;  ///< layer values
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Records one comparison under `name`; returns `ok`.
  bool check(const std::string& name, bool ok) {
    auto it = std::find_if(checks.begin(), checks.end(),
                           [&](const Check& c) { return c.name == name; });
    if (it == checks.end()) {
      checks.push_back({name, 0, 0});
      it = checks.end() - 1;
    }
    ++it->compared;
    if (!ok) ++it->mismatched;
    return ok;
  }

  /// Counts one attempted trial, failed unless `ok`.
  void count_trial(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Timed phases: the whole budget untraced, or with --trace 1 an untraced
/// half followed by a traced half.
struct Phase {
  bool traced;
  double seconds;
};

std::vector<Phase> phases(const Options& o) {
  if (!o.trace) return {{false, o.seconds}};
  return {{false, o.seconds / 2}, {true, o.seconds / 2}};
}

std::uint32_t par_jobs() {
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(runner::ThreadPool::hardware_threads(), 4));
}

double timer_ms(const obs::RunProfile& p, const char* name) {
  double ms = 0.0;
  for (const auto& t : p.timers) {
    if (t.name == name) ms += t.wall_seconds * 1e3;
  }
  return ms;
}

void add_profile_fields(Record& rec, const obs::RunProfile& p) {
  rec.set("graph_ms", timer_ms(p, "setup.graph"));
  rec.set("instance_ms", timer_ms(p, "setup.instance"));
  rec.set("advice_ms", timer_ms(p, "setup.advice"));
  rec.set("schedule_ms", timer_ms(p, "setup.schedule"));
  rec.set("engine_ms", timer_ms(p, "engine.run"));
  rec.set("events", static_cast<double>(p.events));
  rec.set("rounds", static_cast<double>(p.rounds));
  rec.set("awake_node_rounds", static_cast<double>(p.awake_total));
  rec.set("sleep_dropped", static_cast<double>(p.sleep_dropped));
  rec.set("n", static_cast<double>(p.num_nodes));
  rec.set("synchronous", p.synchronous ? 1.0 : 0.0);
}

/// Writes and reloads `g` through the mmap graph cache (traced runs only).
void time_graph_cache(Run& run, const graph::Graph& g, const std::string& spec) {
  const std::string path = (fs::path(run.opt.work) / "graph.cache").string();
  {
    Tracer::Scope s(&run.tracer, "graph.cache_write");
    graph::write_cache(path, g, spec);
  }
  graph::NodeId loaded = 0;
  {
    Tracer::Scope s(&run.tracer, "graph.cache_load");
    loaded = graph::load_cache(path, spec).num_nodes();
  }
  run.check("graph_cache_roundtrip", loaded == g.num_nodes());
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Single-trial workload: sleeping.

struct EngineRow {
  const char* name;
  std::size_t prepared;  ///< index into the workload's preparations
  bool force_sync = false;
  bool parallel = false;
  // The warm-up trial's outcome; every later trial must reproduce it.
  std::uint64_t events = 0, messages = 0, bits = 0, digest = 0;
};

struct EngineTrial {
  Record rec;
  bool ok = false;
  double wall_ms = 0.0;
  std::uint64_t events = 0, messages = 0, bits = 0, digest = 0;
};

EngineTrial run_engine_trial(const EngineRow& row,
                             const app::PreparedExperiment& prepared,
                             sim::RunWorkspace& workspace,
                             sim::ChunkExecutor& executor, Tracer* tracer,
                             double ref_ms) {
  const bool traced = tracer != nullptr;
  std::optional<obs::Probe> probe;
  app::RunInstruments instruments;
  instruments.force_sync_engine = row.force_sync;
  if (row.parallel) {
    instruments.trial_jobs = par_jobs();
    instruments.trial_executor = &executor;
  }
  if (traced) instruments.probe = &probe.emplace();

  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  app::ExperimentReport report;
  {
    Tracer::Scope s(tracer, "app.execute");
    report = app::execute_prepared(prepared, prepared.spec, instruments,
                                   &workspace);
  }
  const double execute_ms = ms_since(t0);
  const auto t1 = Clock::now();
  EngineTrial out;
  {
    Tracer::Scope s(tracer, "check.digest");
    out.digest = check::digest_run(report.result);
  }
  const double digest_ms = ms_since(t1);
  const sim::RunResult& r = report.result;
  out.ok = r.all_awake();
  out.events = r.metrics.events;
  out.messages = r.metrics.messages;
  out.bits = r.metrics.bits;
  Record& rec = out.rec;
  rec.row = row.name;
  rec.family = prepared.algorithm;
  rec.traced = traced;
  rec.set("ref_ms", ref_ms);
  rec.set("execute_ms", execute_ms);
  rec.set("digest_ms", digest_ms);
  rec.set("messages", static_cast<double>(out.messages));
  rec.set("bits", static_cast<double>(out.bits));
  rec.set("jobs", row.parallel ? par_jobs() : 1.0);
  if (traced) {
    add_profile_fields(rec,
                       app::take_run_profile(*probe, report, prepared.spec));
  }
  // A campaign worker's steady state: scalars extracted, per-node buffers
  // handed back for the next trial.
  workspace.recycle_result(std::move(report.result));
  out.wall_ms = ms_since(t0);
  rec.set("wall_ms", out.wall_ms);
  rec.set("allocs",
          static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                              allocs0));
  return out;
}

/// Prepares `specs` kSetupReps times (reporting the median), warms every
/// row once, then rotates through the rows until each phase's budget is
/// spent.
void engine_workload(Run& run, const std::vector<app::ExperimentSpec>& specs,
                     std::vector<EngineRow> rows) {
  std::vector<app::PreparedExperiment> prepared;
  std::unique_ptr<runner::ThreadPool> pool;
  std::vector<double> prepare_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    prepared.clear();  // free the previous set-up before timing the next
    pool.reset();
    run.setup_ref_ms.push_back(run.reference.ms());
    const auto t0 = Clock::now();
    for (const auto& spec : specs) {
      obs::Probe probe;
      Tracer::Scope s(&run.tracer, "app.prepare");
      prepared.push_back(app::prepare_experiment(spec, &probe));
      const obs::RunProfile timers = probe.take_profile(sim::RunResult{});
      Record rec;
      rec.row = "prepare";
      rec.family = prepared.back().algorithm;
      rec.set("graph_ms", timer_ms(timers, "setup.graph"));
      rec.set("instance_ms", timer_ms(timers, "setup.instance"));
      rec.set("advice_ms", timer_ms(timers, "setup.advice"));
      run.prepares.push_back(std::move(rec));
    }
    pool = std::make_unique<runner::ThreadPool>(par_jobs());
    prepare_s.push_back(ms_since(t0) / 1e3);
  }
  runner::PoolChunkExecutor executor(pool.get());
  sim::RunWorkspace workspace;

  // Untimed warm-ups size the workspace; the first one is the cold trial.
  const auto tw = Clock::now();
  for (EngineRow& row : rows) {
    const EngineTrial t = run_engine_trial(row, prepared[row.prepared],
                                           workspace, executor, nullptr, 0.0);
    if (run.cold_trial_ms == 0.0) run.cold_trial_ms = t.wall_ms;
    row.events = t.events;
    row.messages = t.messages;
    row.bits = t.bits;
    row.digest = t.digest;
    run.check("warmup_all_awake", t.ok);
  }
  const double warm_s = ms_since(tw) / 1e3;
  for (const double p : prepare_s) run.setup_s.push_back(p + warm_s);

  // Round-parallel rows must reproduce their serial twin bit for bit.
  for (const EngineRow& par : rows) {
    if (!par.parallel) continue;
    for (const EngineRow& serial : rows) {
      if (!serial.parallel && serial.prepared == par.prepared &&
          serial.force_sync == par.force_sync) {
        run.check("serial_vs_parallel_digest", serial.digest == par.digest);
      }
    }
  }
  for (const EngineRow& row : rows) run.digests.push_back(row.digest);

  if (run.opt.trace) {
    const auto& inst = *prepared.front().instance;
    time_graph_cache(run, inst.graph(), specs.front().graph);
  }

  for (const Phase& phase : phases(run.opt)) {
    Tracer* tracer = phase.traced ? &run.tracer : nullptr;
    g_count_allocs.store(run.opt.trace && !phase.traced);
    std::size_t trials = 0;
    const auto t0 = Clock::now();
    do {
      for (const EngineRow& row : rows) {
        const double ref_ms = run.reference.ms();
        EngineTrial t = run_engine_trial(row, prepared[row.prepared],
                                         workspace, executor, tracer, ref_ms);
        const bool same = t.events == row.events &&
                          t.messages == row.messages && t.bits == row.bits &&
                          t.digest == row.digest;
        const bool ok = run.check(phase.traced ? "traced_vs_untraced_digest"
                                               : "repeat_tuple",
                                  same) &&
                        run.check("all_awake", t.ok);
        run.count_trial(ok);
        run.trials.push_back(std::move(t.rec));
        ++trials;
      }
    } while (ms_since(t0) < phase.seconds * 1e3);
    g_count_allocs.store(false);
    Record pass;
    pass.row = "phase";
    pass.traced = phase.traced;
    pass.set("wall_ms", ms_since(t0));
    pass.set("trials", static_cast<double>(trials));
    run.passes.push_back(std::move(pass));
  }
}

void sleeping(Run& run) {
  app::ExperimentSpec smis;
  smis.graph = "gnp:10000:0.0008";
  smis.schedule = "all";
  smis.algorithm = "smis";
  smis.seed = runner::trial_seed(run.opt.seed, 0);
  app::ExperimentSpec smatching = smis;
  smatching.algorithm = "smatching";
  engine_workload(run, {smis, smatching},
                  {{.name = "smis", .prepared = 0},
                   {.name = "smis_par", .prepared = 0, .parallel = true},
                   {.name = "smatching", .prepared = 1}});
}

// ---------------------------------------------------------------------------
// Campaign workloads: table1_mix, campaign_small.

/// Spans every ResultSink callback, then forwards it.
class TimedSink final : public runner::ResultSink {
 public:
  TimedSink(runner::ResultSink& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void trial(const runner::TrialResult& r) override {
    Tracer::Scope s(tracer_, "runner.sink");
    inner_.trial(r);
  }
  void summary(const runner::CampaignResult& r) override {
    Tracer::Scope s(tracer_, "runner.sink");
    inner_.summary(r);
  }

 private:
  runner::ResultSink& inner_;
  Tracer* tracer_;
};

store::TrialRecord to_record(const runner::TrialResult& r) {
  store::TrialRecord rec;
  rec.graph = r.trial.spec.graph;
  rec.schedule = r.trial.spec.schedule;
  rec.algorithm = r.trial.spec.algorithm;
  rec.delay = r.trial.spec.delay;
  rec.seed = r.trial.spec.seed;
  rec.prepare_tag = store::prepare_tag_per_trial();
  rec.ok = r.ok;
  rec.error = r.error;
  rec.num_nodes = r.num_nodes;
  rec.num_edges = r.num_edges;
  rec.rho_awk = r.rho_awk;
  rec.synchronous = r.synchronous;
  rec.all_awake = r.all_awake;
  rec.awake_count = r.awake_count;
  rec.messages = r.messages;
  rec.bits = r.bits;
  rec.time_units = r.time_units;
  rec.rounds = r.rounds;
  rec.wakeup_span = r.wakeup_span;
  rec.awake_node_ticks = r.awake_node_ticks;
  rec.advice_max_bits = r.advice_max_bits;
  rec.advice_avg_bits = r.advice_avg_bits;
  rec.result_digest = r.result_digest;
  rec.wall_ms = r.wall_ms;
  return rec;
}

/// Times store::ResultStore directly on one pass's results: append into a
/// fresh store, reopen it, look every record up (traced runs only).
void time_store(Run& run, const runner::CampaignResult& result) {
  const fs::path dir = fs::path(run.opt.work) / "store_direct";
  fs::remove_all(dir);
  std::vector<store::TrialRecord> records;
  for (const auto& t : result.trials) records.push_back(to_record(t));
  {
    store::ResultStore s(dir.string(), "solo");
    Tracer::Scope span(&run.tracer, "store.append", records.size());
    for (const auto& rec : records) s.append(rec);
  }
  std::optional<store::ResultStore> reopened;
  {
    Tracer::Scope span(&run.tracer, "store.open");
    reopened.emplace(dir.string(), "");
  }
  std::uint64_t hits = 0;
  {
    Tracer::Scope span(&run.tracer, "store.lookup", records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& rec = records[i];
      const store::TrialRecord* got = reopened->lookup(
          store::record_key(rec), result.trials[i].trial.spec, rec.prepare_tag);
      if (got != nullptr && got->result_digest == rec.result_digest) ++hits;
    }
  }
  run.check("store_direct_hits", hits == records.size());
  run.direct.emplace_back("store.log_bytes",
                          static_cast<double>(fs::file_size(dir / "solo.rsl")));
  run.direct.emplace_back(
      "store.hit_share",
      records.empty() ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(records.size()));
  reopened.reset();
  fs::remove_all(dir);
}

/// Per-trial records of one traced pass: outcome counters and the
/// obs::Probe timers of each trial's profile.
void add_trial_records(Run& run, const runner::CampaignResult& result,
                       const char* row) {
  for (const auto& t : result.trials) {
    Record rec;
    rec.row = row;
    rec.family = t.trial.spec.algorithm;
    rec.traced = true;
    rec.set("wall_ms", t.wall_ms);
    rec.set("messages", static_cast<double>(t.messages));
    rec.set("bits", static_cast<double>(t.bits));
    rec.set("advice_max_bits", static_cast<double>(t.advice_max_bits));
    rec.set("advice_avg_bits", t.advice_avg_bits);
    if (t.profile) add_profile_fields(rec, *t.profile);
    run.trials.push_back(std::move(rec));
  }
}

void add_pass(Run& run, const runner::CampaignResult& result, const char* row,
              bool traced, double wall_ms, std::uint64_t allocs,
              double ref_ms) {
  double busy_ms = 0.0;
  for (const auto& t : result.trials) busy_ms += t.wall_ms;
  Record pass;
  pass.row = row;
  pass.traced = traced;
  pass.set("wall_ms", wall_ms);
  pass.set("trials", static_cast<double>(result.trials.size()));
  pass.set("jobs", static_cast<double>(result.jobs));
  pass.set("busy_ms", busy_ms);
  pass.set("allocs", static_cast<double>(allocs));
  pass.set("ref_ms", ref_ms);
  for (const auto& t : result.trials) {
    pass.walls[t.trial.spec.algorithm].push_back(t.wall_ms);
  }
  run.passes.push_back(std::move(pass));
}

/// Checks one pass against the first pass of the same plan (`reference`
/// empty: this pass becomes the reference and its digests join the
/// canonical list).
void check_pass(Run& run, const runner::CampaignResult& result,
                std::vector<std::uint64_t>& reference, const char* name) {
  const bool first = reference.empty();
  for (std::size_t i = 0; i < result.trials.size(); ++i) {
    const auto& t = result.trials[i];
    if (first) reference.push_back(t.result_digest);
    const bool ok = run.check("trial_ok_all_awake", t.ok && t.all_awake) &&
                    run.check(name, i < reference.size() &&
                                        reference[i] == t.result_digest);
    run.count_trial(ok);
  }
  if (first) {
    run.digests.insert(run.digests.end(), reference.begin(), reference.end());
  }
}

runner::CampaignPlan table1_plan(std::uint64_t seed, std::size_t seeds) {
  runner::CampaignPlan plan;
  plan.base.graph = "cgnp:1000:0.008";
  plan.base.schedule = "random:0.2";
  plan.base.delay = "unit";
  plan.base.seed = seed;
  plan.num_seeds = seeds;
  plan.grid.push_back(runner::parse_grid_axis(
      "algo=ranked_dfs,fast_wakeup,fip06,sqrt,cen,spanner:3,cor2,flooding"));
  return plan;
}

void table1_mix(Run& run) {
  runner::CampaignOptions options;
  options.jobs = 1;
  // Set-up: a two-seeds-per-family warm-up campaign.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    run.setup_ref_ms.push_back(run.reference.ms());
    const auto t0 = Clock::now();
    const auto warm =
        runner::run_campaign(table1_plan(run.opt.seed ^ 0x5EED, 2), options);
    run.setup_s.push_back(ms_since(t0) / 1e3);
    if (rep == 0) run.cold_trial_ms = warm.trials.front().wall_ms;
  }

  // Short passes (4 seeds a family, about 0.7 s) give many samples, each
  // with its own reference time. The passes rotate through 16 plans, so a
  // run covers 64 seeds a family: a family's cost varies with the instance,
  // and fewer seeds left fast_wakeup's median moving with --seed.
  constexpr std::size_t kPlans = 16;
  std::vector<runner::CampaignPlan> plans;
  for (std::size_t k = 0; k < kPlans; ++k) {
    plans.push_back(table1_plan(mix_seed(run.opt.seed, k), 4));
  }
  std::vector<std::vector<std::uint64_t>> references(kPlans);
  for (const Phase& phase : phases(run.opt)) {
    Tracer* tracer = phase.traced ? &run.tracer : nullptr;
    g_count_allocs.store(run.opt.trace && !phase.traced);
    // Each phase starts the rotation afresh, so the traced half times the
    // same plans as the untraced half it is compared with.
    std::size_t next = 0;
    const auto t0 = Clock::now();
    do {
      const std::size_t k = next++ % kPlans;
      runner::CampaignPlan& plan = plans[k];
      plan.profile = phase.traced;
      const double ref_ms = run.reference.ms();
      const std::uint64_t allocs0 = g_allocs.load();
      const auto tp = Clock::now();
      runner::CampaignResult result;
      {
        Tracer::Scope s(tracer, "runner.run_campaign");
        result = runner::run_campaign(plan, options);
      }
      add_pass(run, result, "campaign", phase.traced, ms_since(tp),
               g_allocs.load() - allocs0, ref_ms);
      check_pass(run, result, references[k],
                 phase.traced ? "traced_vs_untraced_digest" : "repeat_digest");
      if (phase.traced) {
        add_trial_records(run, result, "campaign");
        Tracer::Scope s(tracer, "runner.aggregate");
        runner::aggregate_campaign(plan, result);
      }
      if (phase.traced && run.direct.empty()) time_store(run, result);
    } while (ms_since(t0) < phase.seconds * 1e3);
    g_count_allocs.store(false);
  }
  if (run.opt.trace) {
    const std::string& graph = plans.front().base.graph;
    Rng rng(mix_seed(run.opt.seed, 0xA));
    time_graph_cache(run, app::parse_graph_spec(graph, rng), graph);
  }
}

runner::CampaignPlan small_plan(std::uint64_t seed, std::size_t seeds) {
  runner::CampaignPlan plan;
  plan.base.graph = "cgnp:64:0.1";
  plan.base.schedule = "single";
  plan.base.delay = "random:4";
  plan.base.seed = seed;
  plan.num_seeds = seeds;
  plan.grid.push_back(runner::parse_grid_axis("algo=flooding,fip06"));
  return plan;
}

struct CycleResult {
  runner::CampaignResult pass1, resume;
  double pass1_ms = 0.0, resume_ms = 0.0;
  std::uint64_t pass1_allocs = 0;
};

/// Pass 1 writes every trial through a fresh ResultStore and a
/// JsonResultSink; the resume pass reopens the store and re-runs the same
/// campaign, served from the store.
CycleResult store_cycle(Run& run, runner::CampaignPlan plan, Tracer* tracer) {
  const fs::path dir = fs::path(run.opt.work) / "store";
  fs::remove_all(dir);
  runner::CampaignOptions options;
  options.jobs = par_jobs();
  CycleResult c;
  {
    const std::uint64_t allocs0 = g_allocs.load();
    const auto t0 = Clock::now();
    store::ResultStore st(dir.string(), "solo");
    std::ofstream json_out(fs::path(run.opt.work) / "campaign.json");
    runner::JsonResultSink json_sink(json_out, plan, options.jobs);
    TimedSink sink(json_sink, tracer);
    options.store = &st;
    options.sink = &sink;
    {
      Tracer::Scope s(tracer, "runner.run_campaign");
      c.pass1 = runner::run_campaign(plan, options);
    }
    json_out.close();
    c.pass1_ms = ms_since(t0);
    c.pass1_allocs = g_allocs.load() - allocs0;
  }
  // A profiled campaign bypasses store lookups, so the resume pass always
  // runs unprofiled.
  plan.profile = false;
  {
    const auto t0 = Clock::now();
    store::ResultStore st(dir.string(), "solo");
    options.store = &st;
    options.sink = nullptr;
    c.resume = runner::run_campaign(plan, options);
    c.resume_ms = ms_since(t0);
  }
  return c;
}

void campaign_small(Run& run) {
  constexpr std::size_t kSeeds = 2500;
  // Set-up: one full-size warm-up cycle through the same store and sink.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    run.setup_ref_ms.push_back(run.reference.ms());
    const auto t0 = Clock::now();
    const CycleResult warm =
        store_cycle(run, small_plan(run.opt.seed ^ 0x5EED, kSeeds), nullptr);
    run.setup_s.push_back(ms_since(t0) / 1e3);
    if (rep == 0) run.cold_trial_ms = warm.pass1.trials.front().wall_ms;
  }

  runner::CampaignPlan plan = small_plan(run.opt.seed, kSeeds);
  std::vector<std::uint64_t> reference;
  for (const Phase& phase : phases(run.opt)) {
    Tracer* tracer = phase.traced ? &run.tracer : nullptr;
    plan.profile = phase.traced;
    g_count_allocs.store(run.opt.trace && !phase.traced);
    const auto t0 = Clock::now();
    do {
      const double ref_ms = run.reference.ms();
      CycleResult c = store_cycle(run, plan, tracer);
      add_pass(run, c.pass1, "pass1", phase.traced, c.pass1_ms,
               c.pass1_allocs, ref_ms);
      add_pass(run, c.resume, "resume", phase.traced, c.resume_ms, 0, ref_ms);
      run.check("pass1_store_misses",
                c.pass1.store_misses == c.pass1.trials.size());
      check_pass(run, c.pass1, reference,
                 phase.traced ? "traced_vs_untraced_digest" : "repeat_digest");
      const bool all_hits = run.check(
          "resume_store_hits", c.resume.store_hits == c.resume.trials.size());
      for (std::size_t i = 0; i < c.resume.trials.size(); ++i) {
        const auto& t = c.resume.trials[i];
        run.count_trial(
            run.check("resume_digest",
                      all_hits && t.from_store &&
                          t.result_digest == c.pass1.trials[i].result_digest));
      }
      // One traced pass of detail keeps the raw document small.
      if (phase.traced && run.direct.empty()) {
        add_trial_records(run, c.pass1, "pass1");
      }
      if (phase.traced) {
        Tracer::Scope s(tracer, "runner.aggregate");
        runner::aggregate_campaign(plan, c.pass1);
      }
      if (phase.traced && run.direct.empty()) time_store(run, c.pass1);
    } while (ms_since(t0) < phase.seconds * 1e3);
    g_count_allocs.store(false);
  }
  if (run.opt.trace) {
    Rng rng(mix_seed(run.opt.seed, 0xA));
    time_graph_cache(run, app::parse_graph_spec(plan.base.graph, rng),
                     plan.base.graph);
  }
  fs::remove_all(fs::path(run.opt.work) / "store");
  fs::remove(fs::path(run.opt.work) / "campaign.json");
}

// ---------------------------------------------------------------------------
// Run header and output.

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void write_fields(json::Writer& w, const Record& rec) {
  w.begin_object();
  w.kv("row", rec.row).kv("family", rec.family).kv("traced", rec.traced);
  for (const auto& [k, v] : rec.fields) w.kv(k, v);
  if (!rec.walls.empty()) {
    w.key("walls").begin_object();
    for (const auto& [fam, walls] : rec.walls) {
      w.key(fam).begin_array();
      for (const double ms : walls) w.value(ms);
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();
}

void write_records(json::Writer& w, const char* key,
                   const std::vector<Record>& records) {
  w.key(key).begin_array();
  for (const auto& rec : records) write_fields(w, rec);
  w.end_array();
}

void write_raw(const Run& run, std::ostream& os) {
  const runner::Provenance prov = runner::collect_provenance();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  json::Writer w(os, false);
  w.begin_object();
  w.key("header").begin_object();
  w.kv("workload", run.opt.workload)
      .kv("seed", run.opt.seed)
      .kv("seconds", run.opt.seconds)
      .kv("trace", run.opt.trace)
      .kv("cores",
          static_cast<std::uint64_t>(runner::ThreadPool::hardware_threads()))
      .kv("compiler", std::string("gcc ") + __VERSION__)
      .kv("build_type", PERFBENCH_BUILD_TYPE)
      .kv("sanitizer", sanitizer())
      .kv("optimized", kOptimized)
      .kv("commit", prov.commit)
      .kv("date", prov.started_at)
      .kv("trials", "warm");
  w.end_object();
  w.key("setup_s").begin_array();
  for (const double s : run.setup_s) w.value(s);
  w.end_array();
  w.key("setup_ref_ms").begin_array();
  for (const double ms : run.setup_ref_ms) w.value(ms);
  w.end_array();
  w.kv("reference_reached", run.reference.reached());
  w.kv("cold_trial_ms", run.cold_trial_ms);
  w.kv("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  w.kv("attempted", run.attempted).kv("failed", run.failed);
  w.key("checks").begin_array();
  for (const auto& c : run.checks) {
    w.begin_object()
        .kv("name", c.name)
        .kv("compared", c.compared)
        .kv("mismatched", c.mismatched)
        .end_object();
  }
  w.end_array();
  w.key("digests").begin_array();
  for (const std::uint64_t d : run.digests) w.value(d);
  w.end_array();
  w.key("direct").begin_object();
  for (const auto& [k, v] : run.direct) w.kv(k, v);
  w.end_object();
  write_records(w, "prepares", run.prepares);
  write_records(w, "passes", run.passes);
  write_records(w, "trials", run.trials);
  w.key("spans").begin_array();
  for (const auto& s : run.tracer.spans()) {
    w.begin_object()
        .kv("name", s.name)
        .kv("id", static_cast<std::uint64_t>(s.id))
        .kv("parent", static_cast<std::uint64_t>(s.parent))
        .kv("t0", s.t0_ms)
        .kv("t1", s.t1_ms)
        .kv("count", s.count)
        .end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload table1_mix|sleeping|"
               "campaign_small --seed N --seconds S --trace 0|1 --out FILE "
               "--work DIR\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out") {
      opt.out = value;
    } else if (flag == "--work") {
      opt.work = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opt.out.empty() || opt.work.empty() ||
      !(opt.seconds > 0.0)) {
    return usage(argv[0]);
  }
  // Numbers from a sanitized or unoptimised build would be meaningless.
  if (!kOptimized || std::strcmp(sanitizer(), "none") != 0) {
    std::fprintf(stderr,
                 "error: perfbench needs an optimised, unsanitized build "
                 "(optimized=%d, sanitizer=%s)\n",
                 kOptimized ? 1 : 0, sanitizer());
    return 3;
  }

  Run run(opt);
  try {
    fs::create_directories(opt.work);
    if (opt.workload == "table1_mix") {
      table1_mix(run);
    } else if (opt.workload == "sleeping") {
      sleeping(run);
    } else if (opt.workload == "campaign_small") {
      campaign_small(run);
    } else {
      return usage(argv[0]);
    }
    std::ofstream out(opt.out);
    write_raw(run, out);
    if (!out) throw std::runtime_error("cannot write " + opt.out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
