// String-spec front end: build graphs, wake schedules, delay policies, and
// algorithm setups from compact command-line-style specifications. This is
// the engine behind tools/rise_cli and makes every experiment in the paper
// reproducible from a one-line invocation, e.g.
//
//   rise_cli --graph gnp:1000:0.01 --algo ranked_dfs
//            --schedule staggered:10:2 --delay random:5 --seed 7
//
// Spec grammars (all fields ':'-separated; see each parser for details):
//   graph:    path:N | cycle:N | star:N | complete:N | grid:RxC | torus:RxC |
//             hypercube:DIM | tree:N | gnp:N:P | cgnp:N:P | regular:N:D |
//             lollipop:CLIQUE:PATH | barbell:CLIQUE:BRIDGE | ba:N:M |
//             pendant:N | dkq:K:Q | kt0family:N | kt1family:K:Q |
//             cache:PATH:INNERSPEC  (binary mmap cache of INNERSPEC at PATH)
//   schedule: single[:NODE] | all | set:a,b,c | random:P |
//             staggered:GAP:GROWTH | dominating |
//             centers  (the n/3 centers of a kt0family/kt1family graph)
//   delay:    unit | fixed:TAU | random:TAU | slow:TAU:ONE_IN |
//             congestion:TAU
//   (TAU and GAP are ticks, at most 2^32: a larger value fails to parse
//   rather than letting simulated time wrap around.)
//   algo:     flooding | ranked_dfs | ranked_dfs_congest |
//             ranked_dfs_nodiscard | leader | fast_wakeup | gossip:BUDGET |
//             smis | smatching | ttl:R | fip06 | sqrt | cen | cen_chain |
//             spanner:K | cor2 | beta:B |
//             nih:ttl:R  (Lemma 1's NIH solver over ttl:R, KT1 LOCAL)
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "advice/advice.hpp"
#include "graph/graph.hpp"
#include "obs/probe.hpp"
#include "obs/profile.hpp"
#include "sim/adversary.hpp"
#include "sim/context.hpp"
#include "sim/delay_policy.hpp"
#include "sim/kernel.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/trace.hpp"
#include "sim/workspace.hpp"

namespace rise::app {

graph::Graph parse_graph_spec(const std::string& spec, Rng& rng);

sim::WakeSchedule parse_schedule_spec(const std::string& spec,
                                      const graph::Graph& g, Rng& rng);

std::unique_ptr<sim::DelayPolicy> parse_delay_spec(const std::string& spec,
                                                   std::uint64_t seed);

/// A fully-specified algorithm: model requirements, optional oracle, and the
/// kernel that runs it (sim/kernel.hpp), for the built-in families and the
/// diagnostic lower-bound algorithms (ttl, beta, nih) alike.
struct AlgorithmSetup {
  std::string name;
  sim::Knowledge knowledge = sim::Knowledge::KT0;
  sim::Bandwidth bandwidth = sim::Bandwidth::LOCAL;
  bool synchronous = false;
  /// Sleeping-model family: run with SyncRunLimits::sleeping_model so
  /// ctx.sleep_until is honored (implies synchronous).
  bool sleeping = false;
  /// Solves NIH on a lower-bound family graph (beta:B, nih:ttl:R): it runs
  /// on no other graph, and a run that wakes every center at time 0 must
  /// output every center's crucial neighbor (see execute_prepared).
  bool nih = false;
  std::unique_ptr<advice::AdvisingOracle> oracle;  // null if none
  sim::KernelRunner kernel;
};

AlgorithmSetup parse_algorithm_spec(const std::string& spec);

/// Names accepted by parse_algorithm_spec (for --help listings).
std::vector<std::string> algorithm_names();

/// One experiment, end to end.
struct ExperimentSpec {
  std::string graph = "gnp:200:0.05";
  std::string schedule = "single";
  std::string algorithm = "flooding";
  std::string delay = "unit";  // ignored by synchronous algorithms
  std::uint64_t seed = 1;
};

struct ExperimentReport {
  sim::RunResult result;
  sim::Instance::AdviceStats advice;
  graph::NodeId num_nodes = 0;
  std::size_t num_edges = 0;
  std::uint32_t rho_awk = 0;
  std::string algorithm;
  bool synchronous = false;
};

ExperimentReport run_experiment(const ExperimentSpec& spec);

/// Observation and override hooks for an instrumented run_experiment. The
/// instrumented overload is the substrate of the scenario fuzzer
/// (src/check): it replays exactly what the plain overload runs — same
/// seed-stream tags, same parsing — while letting the caller watch the
/// trace or swap in a perturbed delay policy.
struct RunInstruments {
  /// Observer attached to the engine for the whole run (never perturbs it).
  sim::TraceSink* trace = nullptr;

  /// Observability probe (src/obs): collects phase attribution, node-class
  /// stats, and event-loop counters, and receives the host-side PhaseTimer
  /// spans around graph/instance/schedule construction and the engine run.
  /// Like `trace`, pure observation — a probed run is bit-identical to an
  /// unprobed one. Prefer run_profiled unless you need the raw handle.
  obs::Probe* probe = nullptr;

  /// When non-null, replaces the delay policy parsed from spec.delay
  /// (asynchronous runs only). Used for fault injection in checker tests.
  const sim::DelayPolicy* delay_override = nullptr;

  /// Run an *asynchronous* algorithm on the lock-step synchronous engine
  /// (message-driven algorithms run unchanged there; spec.delay is ignored).
  /// The fuzzer's unit-delay differential uses this.
  bool force_sync_engine = false;

  /// Intra-trial parallelism for *synchronous* runs: each stepped round is
  /// split into this many chunks executed on `trial_executor`. Results are
  /// bit-identical to trial_jobs == 1 for any value (the engine reduces all
  /// shared effects in deterministic order); asynchronous runs ignore it —
  /// an event timeline has no round-level parallelism to expose. With
  /// trial_jobs > 1 and no executor a serial executor is substituted, which
  /// exercises the chunked code path without threads.
  std::uint32_t trial_jobs = 1;

  /// Where round chunks run (e.g. runner::PoolChunkExecutor over the
  /// campaign pool). Must outlive the run. Null = serial fallback.
  sim::ChunkExecutor* trial_executor = nullptr;

  /// Called once, after the instance / schedule / delay policy are built and
  /// before the engine runs. `delays` is null for synchronous runs.
  std::function<void(const sim::Instance& instance,
                     const sim::WakeSchedule& schedule,
                     const sim::DelayPolicy* delays, bool synchronous)>
      on_setup;
};

ExperimentReport run_experiment(const ExperimentSpec& spec,
                                const RunInstruments& instruments);

/// The immutable inputs of an experiment, built once and shareable across
/// trials: the generated graph, the sim::Instance topology (CSR, ports,
/// labels) with any oracle advice already installed, and the algorithm's
/// kernel. Everything here is a pure function of (spec.graph,
/// spec.algorithm, spec.seed) — the schedule, delay policy and engine
/// randomness are per-run state and stay in execute_prepared.
///
/// The instance is held const behind a shared_ptr: all its read paths are
/// thread-safe, so one PreparedExperiment may serve concurrent runs on many
/// worker threads. The kernel is likewise shared: each run copies it.
struct PreparedExperiment {
  ExperimentSpec spec;  ///< the spec preparation consumed (seed = prep seed)
  std::shared_ptr<const sim::Instance> instance;
  std::string algorithm;  ///< canonical name from AlgorithmSetup
  bool synchronous = false;
  bool sleeping = false;  ///< sleeping-model family (see AlgorithmSetup)
  bool nih = false;       ///< NIH solver (see AlgorithmSetup)
  sim::KernelRunner kernel;
  sim::Instance::AdviceStats advice;
};

/// Builds the shareable half of run_experiment: graph generation with
/// mix_seed(spec.seed, 0xA), instance construction with mix_seed(spec.seed,
/// 0xB), oracle advice. An NIH solver on a graph without the lower-bound
/// family layout is a CheckError naming both specs. `probe` (optional)
/// receives the setup.graph / setup.instance / setup.advice phase timers.
PreparedExperiment prepare_experiment(const ExperimentSpec& spec,
                                      obs::Probe* probe = nullptr);

/// The per-run half: parses the schedule (mix_seed(spec.seed, 0xC)) and the
/// delay policy (delay_policy_seed(spec.seed)) from `spec`, runs the engine
/// with seed spec.seed, and assembles the report. When an NIH solver's
/// schedule wakes every center at time 0, a center whose output is not its
/// crucial neighbor is a CheckError naming the first such center.
///
/// `spec` must agree with `prepared.spec` on graph and algorithm; schedule,
/// delay and seed may differ — that is the point: one preparation serves a
/// whole campaign of per-trial seeds. run_experiment(spec) is exactly
/// execute_prepared(prepare_experiment(spec), spec), so results are
/// bit-identical whenever prep seed == run seed.
///
/// `workspace` (optional) recycles engine storage across calls; it never
/// changes results. It must belong to the calling thread.
ExperimentReport execute_prepared(const PreparedExperiment& prepared,
                                  const ExperimentSpec& spec,
                                  const RunInstruments& instruments = {},
                                  sim::RunWorkspace* workspace = nullptr);

/// run_experiment plus a RunProfile: attaches a fresh Probe (overriding
/// instruments.probe), runs, and extracts the profile with the experiment
/// identity filled in. The profiled run is bit-identical to the plain one.
struct ProfiledReport {
  ExperimentReport report;
  obs::RunProfile profile;
};

ProfiledReport run_profiled(const ExperimentSpec& spec,
                            const RunInstruments& instruments = {});

/// Extracts `probe`'s RunProfile with the experiment identity filled in
/// from (report, spec). Callers that manage their own probe (the campaign
/// runner threading one probe across prepare + execute) share this with
/// run_profiled so profiles are assembled identically everywhere.
obs::RunProfile take_run_profile(obs::Probe& probe,
                                 const ExperimentReport& report,
                                 const ExperimentSpec& spec);

/// The seed fed to parse_delay_spec for this experiment seed — exposed so
/// instrumented callers can rebuild (and wrap) the exact delay policy a
/// plain run would use.
std::uint64_t delay_policy_seed(std::uint64_t experiment_seed);

/// Human-readable multi-line summary of a report.
std::string format_report(const ExperimentReport& report);

}  // namespace rise::app
