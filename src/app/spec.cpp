#include "app/spec.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "advice/child_encoding.hpp"
#include "advice/fip06.hpp"
#include "advice/spanner_scheme.hpp"
#include "advice/sqrt_threshold.hpp"
#include "algo/fast_wakeup.hpp"
#include "algo/flooding.hpp"
#include "algo/gossip.hpp"
#include "algo/ranked_dfs.hpp"
#include "algo/ranked_dfs_congest.hpp"
#include "algo/sleeping.hpp"
#include "graph/cache.hpp"
#include "graph/generators.hpp"
#include "graph/high_girth.hpp"
#include "lb/beta_probing.hpp"
#include "lb/lower_bound_graphs.hpp"
#include "lb/nih.hpp"
#include "lb/time_restricted.hpp"
#include "sim/kernel.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace rise::app {

namespace {

std::uint64_t to_u64(const std::string& s, const std::string& what) {
  std::uint64_t v = 0;
  RISE_CHECK_MSG(parse_digits(s, v), "expected an integer for "
                                         << what << ", got '" << s << "'");
  return v;
}

/// to_u64, checked against `max` before it narrows to T: a value that does
/// not fit fails instead of silently wrapping.
template <class T>
T to_bounded(const std::string& s, const std::string& what,
             std::uint64_t max = std::numeric_limits<T>::max()) {
  const std::uint64_t v = to_u64(s, what);
  RISE_CHECK_MSG(v <= max, what << " " << s << " exceeds the limit " << max);
  return static_cast<T>(v);
}

/// The largest node count or node id a spec may name (kInvalidNode is
/// reserved).
constexpr std::uint64_t kMaxNode = graph::kInvalidNode - 1;

/// The largest TAU or GAP a spec may name, in ticks (2^32). Simulated time
/// is 64-bit, so 2^32 such steps laid end to end still fit — more delays
/// than the async event cap allows, more schedule gaps than a graph has
/// nodes — and time never wraps around.
constexpr std::uint64_t kMaxTicks = std::uint64_t{1} << 32;

sim::Time to_ticks(const std::string& s, const std::string& what) {
  return to_bounded<sim::Time>(s, what, kMaxTicks);
}

/// The largest graph a spec may ask for, in nodes and in edges (expected
/// edges for gnp/cgnp), checked from the spec's own numbers before any
/// generator allocates. Every spec the tests, benches and experiments use
/// is far below: the largest, gnp:1000000:0.000008, has about 4M edges.
constexpr std::uint64_t kMaxSpecNodes = std::uint64_t{1} << 25;
constexpr std::uint64_t kMaxSpecEdges = std::uint64_t{1} << 26;

/// Fails unless a graph of `nodes` nodes and `edges` edges fits the budget.
/// The counts are doubles, so no product of spec numbers wraps; a NaN count
/// (from a NaN probability) passes on to the generator's own check.
void check_budget(const std::string& spec, double nodes, double edges) {
  RISE_CHECK_MSG(!(nodes > static_cast<double>(kMaxSpecNodes)),
                 "graph spec '" << spec << "' asks for " << std::fixed
                                << std::setprecision(0) << nodes
                                << " nodes, above the budget of "
                                << kMaxSpecNodes << " nodes");
  RISE_CHECK_MSG(!(edges > static_cast<double>(kMaxSpecEdges)),
                 "graph spec '" << spec << "' asks for " << std::fixed
                                << std::setprecision(0) << edges
                                << " edges, above the budget of "
                                << kMaxSpecEdges << " edges");
}

double to_double(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    RISE_CHECK_MSG(pos == s.size(), "trailing junk in " << what << ": " << s);
    return v;
  } catch (const std::exception&) {
    RISE_CHECK_MSG(false, "expected a number for " << what << ", got '" << s
                                                   << "'");
  }
  return 0;
}

void expect_fields(const std::vector<std::string>& f, std::size_t count,
                   const std::string& spec) {
  RISE_CHECK_MSG(f.size() == count,
                 "spec '" << spec << "' expects " << count - 1 << " argument(s)");
}

/// Lemma 1's starting configuration on a family graph with `centers`
/// centers: every center v_i (node i) wakes at time 0.
bool wakes_every_center(const sim::WakeSchedule& schedule,
                        graph::NodeId centers) {
  graph::NodeId woken = 0;
  for (const auto& [time, node] : schedule.wakes) {
    if (time == 0 && node < centers) ++woken;
  }
  return woken == centers;
}

}  // namespace

graph::Graph parse_graph_spec(const std::string& spec, Rng& rng) {
  // cache:PATH:INNERSPEC — binary mmap graph cache (graph/cache.hpp). If
  // PATH exists it is mapped and validated against INNERSPEC (version,
  // endianness and stored-spec mismatches fail fast); otherwise INNERSPEC is
  // built with this call's rng and the result written to PATH. The file pins
  // one concrete topology: the generator seed is *not* part of the key, so a
  // cached random graph is the one built by whichever run created the file.
  // Delete the file to resample. PATH may not contain ':'.
  if (spec.rfind("cache:", 0) == 0) {
    const std::string rest = spec.substr(6);
    const auto sep = rest.find(':');
    RISE_CHECK_MSG(sep != std::string::npos && sep > 0 && sep + 1 < rest.size(),
                   "cache spec needs cache:PATH:INNERSPEC, got '" << spec
                                                                  << "'");
    const std::string path = rest.substr(0, sep);
    const std::string inner = rest.substr(sep + 1);
    if (graph::cache_file_exists(path)) {
      return graph::load_cache(path, inner);
    }
    graph::Graph g = parse_graph_spec(inner, rng);
    graph::write_cache(path, g, inner);
    return g;
  }
  const auto f = split(spec, ':');
  RISE_CHECK_MSG(!spec.empty(), "empty graph spec");
  const std::string& kind = f[0];
  auto n_of = [&](std::size_t i) {
    return to_bounded<graph::NodeId>(f[i], "node count", kMaxNode);
  };
  // Each kind checks the size it asks for against the budget first.
  if (kind == "path" || kind == "cycle" || kind == "star" ||
      kind == "tree") {
    expect_fields(f, 2, spec);
    const graph::NodeId n = n_of(1);
    check_budget(spec, n, n);
    if (kind == "path") return graph::path(n);
    if (kind == "cycle") return graph::cycle(n);
    if (kind == "star") return graph::star(n);
    return graph::random_tree(n, rng);
  }
  if (kind == "complete") {
    expect_fields(f, 2, spec);
    const graph::NodeId n = n_of(1);
    check_budget(spec, n, n * (n - 1.0) / 2);
    return graph::complete(n);
  }
  if (kind == "grid" || kind == "torus") {
    expect_fields(f, 2, spec);
    const auto dims = split(f[1], 'x');
    RISE_CHECK_MSG(dims.size() == 2, "grid/torus spec needs RxC, got " << f[1]);
    const auto r = to_bounded<graph::NodeId>(dims[0], "rows", kMaxNode);
    const auto c = to_bounded<graph::NodeId>(dims[1], "cols", kMaxNode);
    check_budget(spec, static_cast<double>(r) * c, 2.0 * r * c);
    return kind == "grid" ? graph::grid(r, c) : graph::torus(r, c);
  }
  if (kind == "hypercube") {
    expect_fields(f, 2, spec);
    return graph::hypercube(to_bounded<unsigned>(f[1], "dimension"));
  }
  if (kind == "gnp" || kind == "cgnp") {
    expect_fields(f, 3, spec);
    const graph::NodeId n = n_of(1);
    const double p = to_double(f[2], "edge probability");
    // Expected edges; cgnp adds at most n - 1 to connect the components.
    check_budget(spec, n, p * n * (n - 1.0) / 2 + (kind == "cgnp" ? n : 0));
    return kind == "gnp" ? graph::gnp(n, p, rng)
                         : graph::connected_gnp(n, p, rng);
  }
  if (kind == "regular") {
    expect_fields(f, 3, spec);
    const graph::NodeId n = n_of(1);
    const graph::NodeId d = n_of(2);
    check_budget(spec, n, static_cast<double>(n) * d / 2);
    return graph::random_regular(n, d, rng);
  }
  if (kind == "lollipop" || kind == "barbell") {
    expect_fields(f, 3, spec);
    const graph::NodeId clique = n_of(1);
    const graph::NodeId tail = n_of(2);
    const double cliques = kind == "lollipop" ? 1 : 2;
    check_budget(spec, cliques * clique + tail,
                 cliques * clique * (clique - 1.0) / 2 + tail + 1);
    return kind == "lollipop" ? graph::lollipop(clique, tail)
                              : graph::barbell(clique, tail);
  }
  if (kind == "ba") {
    expect_fields(f, 3, spec);
    const graph::NodeId n = n_of(1);
    const graph::NodeId attach = n_of(2);
    check_budget(spec, n, static_cast<double>(n) * attach);
    return graph::barabasi_albert(n, attach, rng);
  }
  if (kind == "pendant") {
    expect_fields(f, 2, spec);
    const graph::NodeId n = n_of(1);
    check_budget(spec, n, n * (n - 1.0) / 2);
    return graph::complete_plus_pendant(n);
  }
  if (kind == "dkq" || kind == "kt1family") {
    expect_fields(f, 3, spec);
    const auto k = to_bounded<unsigned>(f[1], "k");
    const std::uint64_t q = to_u64(f[2], "q");
    // D(k, q) has q^k nodes a side and q^(k+1) edges; the family adds a
    // third side matched to one of them.
    const double side = std::pow(static_cast<double>(q), k);
    if (kind == "dkq") {
      check_budget(spec, 2 * side, side * static_cast<double>(q));
      return graph::lazebnik_ustimenko_d(k, q).graph;
    }
    check_budget(spec, 3 * side, side * (static_cast<double>(q) + 1));
    return lb::make_kt1_family(k, q).family.graph;
  }
  if (kind == "kt0family") {
    expect_fields(f, 2, spec);
    const graph::NodeId n = n_of(1);
    check_budget(spec, 3.0 * n, static_cast<double>(n) * n + n);
    return lb::make_kt0_family(n).graph;
  }
  RISE_CHECK_MSG(false, "unknown graph spec kind '" << kind << "'");
  return {};
}

sim::WakeSchedule parse_schedule_spec(const std::string& spec,
                                      const graph::Graph& g, Rng& rng) {
  const auto f = split(spec, ':');
  RISE_CHECK_MSG(!spec.empty(), "empty schedule spec");
  const std::string& kind = f[0];
  if (kind == "single") {
    graph::NodeId node = 0;
    if (f.size() == 2) {
      node = to_bounded<graph::NodeId>(f[1], "node", kMaxNode);
    } else {
      expect_fields(f, 1, spec);
    }
    RISE_CHECK_MSG(node < g.num_nodes(), "schedule node out of range");
    return sim::wake_single(node);
  }
  if (kind == "all") {
    expect_fields(f, 1, spec);
    return sim::wake_all(g.num_nodes());
  }
  if (kind == "set") {
    expect_fields(f, 2, spec);
    std::vector<graph::NodeId> nodes;
    for (const auto& tok : split(f[1], ',')) {
      const auto node = to_bounded<graph::NodeId>(tok, "node", kMaxNode);
      RISE_CHECK_MSG(node < g.num_nodes(), "schedule node out of range");
      nodes.push_back(node);
    }
    RISE_CHECK_MSG(!nodes.empty(), "set schedule needs at least one node");
    return sim::wake_set(std::move(nodes));
  }
  if (kind == "random") {
    expect_fields(f, 2, spec);
    return sim::wake_random_subset(g.num_nodes(),
                                   to_double(f[1], "probability"), rng);
  }
  if (kind == "staggered") {
    expect_fields(f, 3, spec);
    return sim::staggered_doubling(g.num_nodes(), to_ticks(f[1], "gap"),
                                   to_double(f[2], "growth"), rng);
  }
  if (kind == "dominating") {
    expect_fields(f, 1, spec);
    return sim::dominating_set_wakeup(g);
  }
  if (kind == "centers") {
    expect_fields(f, 1, spec);
    RISE_CHECK_MSG(lb::has_family_layout(g),
                   "schedule '" << spec << "' needs a lower-bound family "
                                   "graph (kt0family:N or kt1family:K:Q)");
    return lb::wake_centers(g.num_nodes() / 3);
  }
  RISE_CHECK_MSG(false, "unknown schedule spec kind '" << kind << "'");
  return {};
}

std::unique_ptr<sim::DelayPolicy> parse_delay_spec(const std::string& spec,
                                                   std::uint64_t seed) {
  const auto f = split(spec, ':');
  RISE_CHECK_MSG(!spec.empty(), "empty delay spec");
  const std::string& kind = f[0];
  if (kind == "unit") {
    expect_fields(f, 1, spec);
    return sim::unit_delay();
  }
  if (kind == "fixed") {
    expect_fields(f, 2, spec);
    return sim::fixed_delay(to_ticks(f[1], "tau"));
  }
  if (kind == "random") {
    expect_fields(f, 2, spec);
    return sim::random_delay(to_ticks(f[1], "tau"), seed);
  }
  if (kind == "slow") {
    expect_fields(f, 3, spec);
    return sim::slow_channels_delay(to_ticks(f[1], "tau"),
                                    to_u64(f[2], "one-in"), seed);
  }
  if (kind == "congestion") {
    expect_fields(f, 2, spec);
    return sim::congestion_delay(to_ticks(f[1], "tau"));
  }
  RISE_CHECK_MSG(false, "unknown delay spec kind '" << kind << "'");
  return nullptr;
}

AlgorithmSetup parse_algorithm_spec(const std::string& spec) {
  const auto f = split(spec, ':');
  RISE_CHECK_MSG(!spec.empty(), "empty algorithm spec");
  const std::string& kind = f[0];
  AlgorithmSetup setup;
  setup.name = spec;
  if (kind == "flooding") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.kernel = algo::flooding_kernel();
    return setup;
  }
  if (kind == "ranked_dfs" || kind == "ranked_dfs_nodiscard") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT1;
    setup.bandwidth = sim::Bandwidth::LOCAL;
    setup.kernel = kind == "ranked_dfs" ? algo::ranked_dfs_kernel()
                                        : algo::ranked_dfs_no_discard_kernel();
    return setup;
  }
  if (kind == "ranked_dfs_congest") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT1;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.kernel = algo::ranked_dfs_congest_kernel();
    return setup;
  }
  if (kind == "leader") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT1;
    setup.bandwidth = sim::Bandwidth::LOCAL;
    setup.kernel = algo::ranked_dfs_leader_kernel();
    return setup;
  }
  if (kind == "fast_wakeup") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT1;
    setup.bandwidth = sim::Bandwidth::LOCAL;
    setup.synchronous = true;
    setup.kernel = algo::fast_wakeup_kernel();
    return setup;
  }
  if (kind == "gossip") {
    expect_fields(f, 2, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.synchronous = true;
    const std::uint64_t budget = to_u64(f[1], "round budget");
    setup.kernel = algo::push_gossip_kernel(budget);
    return setup;
  }
  if (kind == "smis") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.synchronous = true;
    setup.sleeping = true;
    setup.kernel = algo::sleeping_mis_kernel();
    return setup;
  }
  if (kind == "smatching") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.synchronous = true;
    setup.sleeping = true;
    setup.kernel = algo::sleeping_matching_kernel();
    return setup;
  }
  if (kind == "ttl") {
    expect_fields(f, 2, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.kernel =
        lb::ttl_flood_kernel(to_bounded<std::uint32_t>(f[1], "ttl"));
    return setup;
  }
  if (kind == "fip06") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.oracle = advice::fip06_oracle();
    setup.kernel = advice::fip06_kernel();
    return setup;
  }
  if (kind == "sqrt") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.oracle = advice::sqrt_threshold_oracle();
    setup.kernel = advice::sqrt_threshold_kernel();
    return setup;
  }
  if (kind == "cen" || kind == "cen_chain") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.oracle = advice::child_encoding_oracle(0, kind == "cen" ? 2 : 1);
    setup.kernel = advice::child_encoding_kernel();
    return setup;
  }
  if (kind == "spanner") {
    expect_fields(f, 2, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.oracle = advice::spanner_oracle(to_bounded<unsigned>(f[1], "k"));
    setup.kernel = advice::spanner_kernel();
    return setup;
  }
  if (kind == "cor2") {
    expect_fields(f, 1, spec);
    auto scheme = advice::corollary2_scheme();
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.oracle = std::move(scheme.oracle);
    setup.kernel = std::move(scheme.kernel);
    return setup;
  }
  if (kind == "beta") {
    expect_fields(f, 2, spec);
    const auto beta = to_bounded<unsigned>(f[1], "beta");
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.nih = true;
    setup.oracle = lb::beta_probing_oracle(beta);
    setup.kernel = lb::beta_probing_kernel(beta);
    return setup;
  }
  if (kind == "nih") {
    // Lemma 1 over the time-restricted broadcast, in KT1 LOCAL (Theorem 2's
    // model); the wrapper takes no other inner algorithm here.
    RISE_CHECK_MSG(f.size() > 1 && f[1] == "ttl",
                   "algorithm '" << spec << "': unsupported inner algorithm '"
                                 << (f.size() > 1 ? spec.substr(4) : "")
                                 << "' (nih wraps ttl:R only)");
    expect_fields(f, 3, spec);
    setup.knowledge = sim::Knowledge::KT1;
    setup.bandwidth = sim::Bandwidth::LOCAL;
    setup.nih = true;
    setup.kernel = lb::nih_kernel(
        lb::TtlFloodKernel(to_bounded<std::uint32_t>(f[2], "ttl")));
    return setup;
  }
  RISE_CHECK_MSG(false, "unknown algorithm '" << kind
                                              << "'; see algorithm_names()");
  return setup;
}

std::vector<std::string> algorithm_names() {
  return {"flooding", "ranked_dfs", "ranked_dfs_congest",
          "ranked_dfs_nodiscard", "leader", "fast_wakeup", "gossip:BUDGET",
          "smis", "smatching", "ttl:R", "fip06", "sqrt", "cen", "cen_chain",
          "spanner:K", "cor2", "beta:B", "nih:ttl:R"};
}

ExperimentReport run_experiment(const ExperimentSpec& spec) {
  return run_experiment(spec, RunInstruments{});
}

std::uint64_t delay_policy_seed(std::uint64_t experiment_seed) {
  return mix_seed(experiment_seed, 0xD);
}

PreparedExperiment prepare_experiment(const ExperimentSpec& spec,
                                      obs::Probe* probe) {
  PreparedExperiment prep;
  prep.spec = spec;

  Rng graph_rng(mix_seed(spec.seed, 0xA));
  graph::Graph g;
  {
    obs::PhaseTimer timer(probe, "setup.graph");
    g = parse_graph_spec(spec.graph, graph_rng);
  }

  AlgorithmSetup algorithm = parse_algorithm_spec(spec.algorithm);
  // An NIH solver reads the centers and crucial neighbors of a lower-bound
  // family (beta:B's oracle reads its matching edges); reject any other
  // graph here rather than deep inside instance, oracle or answer code.
  RISE_CHECK_MSG(!algorithm.nih || lb::has_family_layout(g),
                 "algorithm '" << spec.algorithm << "' cannot run on graph '"
                               << spec.graph
                               << "': it needs a lower-bound family graph "
                                  "(kt0family:N or kt1family:K:Q)");
  prep.algorithm = algorithm.name;
  prep.synchronous = algorithm.synchronous;
  prep.sleeping = algorithm.sleeping;
  prep.nih = algorithm.nih;
  prep.kernel = std::move(algorithm.kernel);

  sim::InstanceOptions options;
  options.knowledge = algorithm.knowledge;
  options.bandwidth = algorithm.bandwidth;
  std::shared_ptr<sim::Instance> instance;
  {
    obs::PhaseTimer timer(probe, "setup.instance");
    Rng instance_rng(mix_seed(spec.seed, 0xB));
    instance = std::make_shared<sim::Instance>(
        sim::Instance::create(std::move(g), options, instance_rng));
  }
  if (algorithm.oracle != nullptr) {
    obs::PhaseTimer timer(probe, "setup.advice");
    prep.advice = advice::apply_oracle(*instance, *algorithm.oracle);
  }
  // const from here on: the instance is complete (advice installed) and
  // every remaining access is a thread-safe read.
  prep.instance = std::move(instance);
  return prep;
}

ExperimentReport execute_prepared(const PreparedExperiment& prepared,
                                  const ExperimentSpec& spec,
                                  const RunInstruments& instruments,
                                  sim::RunWorkspace* workspace) {
  RISE_CHECK_MSG(
      spec.graph == prepared.spec.graph &&
          spec.algorithm == prepared.spec.algorithm,
      "spec (graph=" << spec.graph << ", algo=" << spec.algorithm
                     << ") does not match the prepared configuration (graph="
                     << prepared.spec.graph
                     << ", algo=" << prepared.spec.algorithm << ")");
  obs::Probe* probe = instruments.probe;
  const sim::Instance& instance = *prepared.instance;
  const graph::Graph& g = instance.graph();

  ExperimentReport report;
  report.algorithm = prepared.algorithm;
  report.synchronous = prepared.synchronous;
  report.num_nodes = g.num_nodes();
  report.num_edges = g.num_edges();
  report.advice = prepared.advice;

  sim::WakeSchedule schedule;
  {
    obs::PhaseTimer timer(probe, "setup.schedule");
    Rng schedule_rng(mix_seed(spec.seed, 0xC));
    schedule = parse_schedule_spec(spec.schedule, g, schedule_rng);
    report.rho_awk = sim::schedule_awake_distance(g, schedule);
  }

  const bool synchronous =
      prepared.synchronous || instruments.force_sync_engine;
  if (synchronous) {
    report.synchronous = true;
    if (instruments.on_setup) {
      instruments.on_setup(instance, schedule, nullptr, true);
    }
    sim::SyncRunLimits limits;
    limits.sleeping_model = prepared.sleeping;
    // Round-parallel stepping (bit-identical for any job count). With no
    // executor wired in, a process-wide serial executor still routes the
    // run through the chunked code path — that is what differential tests
    // and the fuzzer exercise without spawning threads.
    sim::SyncParallel parallel;
    if (instruments.trial_jobs > 1) {
      static sim::SerialChunkExecutor serial_executor;
      parallel.jobs = instruments.trial_jobs;
      parallel.executor = instruments.trial_executor != nullptr
                              ? instruments.trial_executor
                              : &serial_executor;
    }
    sim::SyncKernelArgs args;
    args.instance = &instance;
    args.schedule = &schedule;
    args.seed = spec.seed;
    args.limits = limits;
    args.trace = instruments.trace;
    args.probe = probe;
    args.workspace = workspace;
    args.parallel = parallel;
    obs::PhaseTimer timer(probe, "engine.run");
    report.result = prepared.kernel.run_sync(args);
    timer.set_sim_span(report.result.metrics.rounds);
  } else {
    std::unique_ptr<sim::DelayPolicy> parsed;
    const sim::DelayPolicy* delays = instruments.delay_override;
    if (delays == nullptr) {
      parsed = parse_delay_spec(spec.delay, delay_policy_seed(spec.seed));
      delays = parsed.get();
    }
    if (instruments.on_setup) {
      instruments.on_setup(instance, schedule, delays, false);
    }
    sim::AsyncKernelArgs args;
    args.instance = &instance;
    args.delays = delays;
    args.schedule = &schedule;
    args.seed = spec.seed;
    args.trace = instruments.trace;
    args.probe = probe;
    args.workspace = workspace;
    obs::PhaseTimer timer(probe, "engine.run");
    report.result = prepared.kernel.run_async(args);
    timer.set_sim_span(std::max(report.result.metrics.last_delivery,
                                report.result.metrics.last_wake));
  }
  if (prepared.nih && wakes_every_center(schedule, g.num_nodes() / 3)) {
    const graph::NodeId wrong = lb::first_wrong_center(report.result, instance);
    RISE_CHECK_MSG(wrong == graph::kInvalidNode,
                   "algorithm '" << spec.algorithm << "' did not solve NIH on "
                                 << "graph '" << spec.graph << "': center "
                                 << wrong << " did not output its crucial "
                                 << "neighbor");
  }
  return report;
}

ExperimentReport run_experiment(const ExperimentSpec& spec,
                                const RunInstruments& instruments) {
  // The split is exhaustive: preparing and executing with the same spec is
  // the legacy single-shot path, bit for bit.
  const PreparedExperiment prepared =
      prepare_experiment(spec, instruments.probe);
  return execute_prepared(prepared, spec, instruments);
}

obs::RunProfile take_run_profile(obs::Probe& probe,
                                 const ExperimentReport& report,
                                 const ExperimentSpec& spec) {
  obs::RunProfile profile = probe.take_profile(report.result);
  profile.algorithm = spec.algorithm;
  profile.graph = spec.graph;
  profile.schedule = spec.schedule;
  profile.delay = spec.delay;
  profile.seed = spec.seed;
  profile.num_nodes = report.num_nodes;
  profile.num_edges = report.num_edges;
  profile.rho_awk = report.rho_awk;
  profile.synchronous = report.synchronous;
  return profile;
}

ProfiledReport run_profiled(const ExperimentSpec& spec,
                            const RunInstruments& instruments) {
  obs::Probe probe;
  RunInstruments probed = instruments;
  probed.probe = &probe;

  ProfiledReport out;
  out.report = run_experiment(spec, probed);
  out.profile = take_run_profile(probe, out.report, spec);
  return out;
}

std::string format_report(const ExperimentReport& report) {
  std::ostringstream os;
  os << "algorithm : " << report.algorithm
     << (report.synchronous ? "  (synchronous)" : "  (asynchronous)") << "\n";
  os << "network   : n=" << report.num_nodes << "  m=" << report.num_edges
     << "  rho_awk=" << report.rho_awk << "\n";
  os << "outcome   : "
     << (report.result.all_awake() ? "all nodes awake"
                                   : "SOME NODES STILL ASLEEP")
     << " (" << report.result.awake_count() << "/" << report.num_nodes
     << ")\n";
  os << "time      : " << report.result.metrics.time_units() << " units";
  if (report.synchronous) {
    os << "  (" << report.result.metrics.rounds << " rounds)";
  }
  os << "\n";
  os << "messages  : " << report.result.metrics.messages << "  ("
     << report.result.metrics.bits << " bits)\n";
  if (report.advice.total_bits > 0) {
    os << "advice    : max " << report.advice.max_bits << " bits, avg "
       << report.advice.avg_bits << " bits per node\n";
  }
  return os.str();
}

}  // namespace rise::app
