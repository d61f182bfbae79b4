// google-benchmark micro-benchmarks for the substrates: simulator event
// throughput, graph generators, the greedy spanner, the D(k,q) construction,
// girth computation and per-trial prepare (graph, instance, advice). These
// quantify the cost of the experiment harness itself, independent of any
// paper claim.
//
// Two kinds of row are gated. BM_ProbeOverhead (e.g.
// --benchmark_filter=ProbeOverhead) times the disabled-probe path against a
// probe-free clone in alternating pairs, and main exits 1 if the median
// overhead is above kMaxProbeOverhead. The BM_Prepare rows count
// allocations, and main exits 1 if one makes more than kMaxPrepareAllocs
// per prepare.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/flooding.hpp"
#include "alloc_count.hpp"
#include "app/spec.hpp"
#include "algo/ranked_dfs.hpp"
#include "algo/sleeping.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/high_girth.hpp"
#include "graph/spanner.hpp"
#include "obs/probe.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rise;

sim::Instance make_inst(const graph::Graph& g, sim::Knowledge k) {
  sim::InstanceOptions opt;
  opt.knowledge = k;
  Rng rng(1);
  return sim::Instance::create(g, opt, rng);
}

/// Flooding on G(n, 8/n) from one woken node with a warm workspace — the
/// steady-state campaign trial. Past the warm-up trial the loop body
/// performs zero heap allocations (bench_million_node gates that at
/// n = 10^6). n = 10^4 is the size EXPERIMENTS.md "Engine
/// micro-benchmarks" reports.
void BM_KernelFloodingEvents(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  const auto delays = sim::unit_delay();
  const auto schedule = sim::wake_single(0);
  const sim::KernelRunner kernel = algo::flooding_kernel();
  sim::RunWorkspace workspace;
  sim::AsyncKernelArgs args;
  args.instance = &inst;
  args.delays = delays.get();
  args.schedule = &schedule;
  args.seed = 1;
  args.workspace = &workspace;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto result = kernel.run_async(args);
    events += result.metrics.events;
    benchmark::DoNotOptimize(result.metrics.messages);
    workspace.recycle_result(std::move(result));
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelFloodingEvents)->Arg(10000);

/// The tentpole size: flooding on G(10^6, 8/n), wake-all, kernel path.
/// connected_gnp is hopeless at this n (hundreds of expected isolated
/// nodes), so the graph is plain gnp and the schedule wakes everyone —
/// every node and edge is exercised regardless of connectivity.
void BM_MillionNodeKernelFlooding(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(1);
  const auto g = graph::gnp(n, 8.0 / static_cast<double>(n), rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  const auto delays = sim::unit_delay();
  const auto schedule = sim::wake_all(n);
  const sim::KernelRunner kernel = algo::flooding_kernel();
  sim::RunWorkspace workspace;
  sim::AsyncKernelArgs args;
  args.instance = &inst;
  args.delays = delays.get();
  args.schedule = &schedule;
  args.seed = 7;
  args.workspace = &workspace;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto result = kernel.run_async(args);
    events += result.metrics.events;
    benchmark::DoNotOptimize(result.metrics.messages);
    workspace.recycle_result(std::move(result));
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MillionNodeKernelFlooding)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

/// Same flooding workload under adversarial random delays in [1, tau]. At
/// tau = 16 deliveries stay mostly on the timing wheel's level 0; at larger
/// tau most land on higher levels and spill down. 4096 and 4097 straddle
/// the span where an earlier queue switched from a ring to a heap, and
/// 100000 should stay within a small factor of 16.
void BM_AsyncFloodingTimeline(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto tau = static_cast<sim::Time>(state.range(1));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  const auto delays = sim::random_delay(tau, 5);
  const auto schedule = sim::wake_single(0);
  const sim::KernelRunner kernel = algo::flooding_kernel();
  sim::RunWorkspace workspace;
  sim::AsyncKernelArgs args;
  args.instance = &inst;
  args.delays = delays.get();
  args.schedule = &schedule;
  args.seed = 1;
  args.workspace = &workspace;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto result = kernel.run_async(args);
    events += result.metrics.events;
    benchmark::DoNotOptimize(result.metrics.messages);
    workspace.recycle_result(std::move(result));
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AsyncFloodingTimeline)
    ->Args({10000, 16})
    ->Args({10000, 4096})
    ->Args({10000, 4097})
    ->Args({10000, 100000})
    ->ArgNames({"n", "tau"});

/// A flooding kernel clone with zero probe calls — the pre-observability
/// hot path. BM_ProbeOverhead prices the disabled-probe branches
/// (ctx.probe() + the NodeProbe null checks in the production
/// algo::flooding_kernel) that sit on every wake against it.
struct ProbeFreeFloodingKernel {
  void reset(const sim::Instance&, sim::RunWorkspace*) {}
  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause) {
    ctx.broadcast(algo::kFloodWake, 8);
  }
  template <class Ctx>
  void on_message(Ctx&, const sim::Incoming&) {}
};

/// The probe rows' workload: flooding on G(n, 8/n) from one woken node,
/// with a warm workspace.
struct ProbeWorkload {
  explicit ProbeWorkload(graph::NodeId n, obs::Probe* probe = nullptr)
      : inst(make_inst(probe_graph(n), sim::Knowledge::KT0)) {
    args.instance = &inst;
    args.delays = delays.get();
    args.schedule = &schedule;
    args.seed = 1;
    args.probe = probe;
    args.workspace = &workspace;
  }

  /// One run; returns its event count.
  std::uint64_t run(const sim::KernelRunner& kernel) {
    auto result = kernel.run_async(args);
    const std::uint64_t events = result.metrics.events;
    benchmark::DoNotOptimize(result.metrics.messages);
    workspace.recycle_result(std::move(result));
    return events;
  }

  static graph::Graph probe_graph(graph::NodeId n) {
    Rng rng(n);
    return graph::connected_gnp(n, 8.0 / n, rng);
  }

  sim::Instance inst;
  std::unique_ptr<sim::DelayPolicy> delays = sim::unit_delay();
  sim::WakeSchedule schedule = sim::wake_single(0);
  sim::RunWorkspace workspace;
  sim::AsyncKernelArgs args;
};

/// The probe rows' size.
constexpr graph::NodeId kProbeNodes = 10000;

void BM_ProbeEnabledFlooding(benchmark::State& state) {
  // Informative (not gated): full attribution — phase marks, counters,
  // per-send accounting, queue statistics.
  obs::Probe probe;
  ProbeWorkload workload(kProbeNodes, &probe);
  const sim::KernelRunner kernel = algo::flooding_kernel();
  std::uint64_t events = 0;
  for (auto _ : state) events += workload.run(kernel);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProbeEnabledFlooding);

void BM_SyncFloodingRounds(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  for (auto _ : state) {
    const auto result =
        sim::run_sync(inst, sim::wake_single(0), 1, algo::flooding_kernel());
    benchmark::DoNotOptimize(result.metrics.rounds);
  }
}
BENCHMARK(BM_SyncFloodingRounds)->Arg(1000)->Arg(4000);

/// Sleeping-model families with a warm workspace, the campaign steady
/// state: prices the nap bookkeeping (nap-end timers, drop accounting) the
/// sleeping engine adds per round. state.range(1) selects the family
/// (0 = smis, 1 = smatching).
void BM_KernelSleepingRounds(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const bool matching = state.range(1) == 1;
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT0;
  opt.bandwidth = sim::Bandwidth::CONGEST;
  Rng irng(1);
  const auto inst = sim::Instance::create(g, opt, irng);
  const auto schedule = sim::wake_single(0);
  const sim::KernelRunner kernel = matching ? algo::sleeping_matching_kernel()
                                            : algo::sleeping_mis_kernel();
  sim::RunWorkspace workspace;
  sim::SyncKernelArgs args;
  args.instance = &inst;
  args.schedule = &schedule;
  args.seed = 1;
  args.limits.sleeping_model = true;
  args.workspace = &workspace;
  for (auto _ : state) {
    auto result = kernel.run_sync(args);
    benchmark::DoNotOptimize(result.metrics.sleep_dropped);
    workspace.recycle_result(std::move(result));
  }
}
BENCHMARK(BM_KernelSleepingRounds)
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->ArgNames({"n", "matching"});

/// RankedDFS on G(n, 8/n) under unit delays, waking wake_pct % of the
/// nodes. Wake-all at n <= 500 keeps visited lists short (many tokens, each
/// beaten early); n = 1000 with a 20 % wake set is the perfbench table1_mix
/// shape (cgnp:1000:0.008, random:0.2), whose winning token carries most of
/// the graph's IDs on every hop.
void BM_RankedDfs(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto wake_pct = state.range(1);
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT1);
  const auto delays = sim::unit_delay();
  const auto schedule =
      wake_pct >= 100
          ? sim::wake_all(n)
          : sim::wake_random_subset(n, static_cast<double>(wake_pct) / 100.0,
                                    rng);
  for (auto _ : state) {
    const auto result = sim::run_async(inst, *delays, schedule, 1,
                                       algo::ranked_dfs_kernel());
    benchmark::DoNotOptimize(result.metrics.messages);
  }
}
BENCHMARK(BM_RankedDfs)
    ->Args({250, 100})
    ->Args({500, 100})
    ->Args({1000, 20})
    ->ArgNames({"n", "wake_pct"})
    ->Unit(benchmark::kMillisecond);

/// Times greedy_spanner(g, k). kept_edges shows a change in the output next
/// to the time; walk_pct is the share of within-tree questions the forest
/// walk answered without the bidirectional search.
void time_greedy_spanner(benchmark::State& state, const graph::Graph& g,
                         unsigned k) {
  graph::SpannerStats stats;
  std::size_t kept = 0;
  for (auto _ : state) {
    const auto s = graph::greedy_spanner(g, k, &stats);
    kept = s.num_edges();
    benchmark::DoNotOptimize(kept);
  }
  state.counters["kept_edges"] = static_cast<double>(kept);
  const auto asked = stats.walk_drops + stats.searches;
  state.counters["walk_pct"] =
      asked == 0 ? 0.0
                 : 100.0 * static_cast<double>(stats.walk_drops) /
                       static_cast<double>(asked);
}

// connected_gnp(n, p_permille / 1000) at stretch 2k - 1. The n:1000 rows
// are perfbench table1_mix's cgnp:1000:0.008 shape at k = 3 (spanner:3) and
// k = ceil(log2 n) = 10 (cor2). The dense n:600 rows make short searches
// cheap, so at k = 2 the forest walk saves little.
void BM_GreedySpanner(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 1000.0;
  Rng rng(n);
  time_greedy_spanner(state, graph::connected_gnp(n, p, rng),
                      static_cast<unsigned>(state.range(2)));
}
BENCHMARK(BM_GreedySpanner)
    ->Args({300, 100, 3})
    ->Args({600, 100, 2})
    ->Args({600, 100, 3})
    ->Args({1000, 8, 3})
    ->Args({1000, 8, 10})
    ->ArgNames({"n", "p_permille", "k"})
    ->Unit(benchmark::kMillisecond);

// grid(side, side): high diameter and degree at most 4, so forest paths
// are long, searches are cheap and the forest walk rarely answers.
void BM_GreedySpannerGrid(benchmark::State& state) {
  const auto side = static_cast<graph::NodeId>(state.range(0));
  time_greedy_spanner(state, graph::grid(side, side),
                      static_cast<unsigned>(state.range(1)));
}
BENCHMARK(BM_GreedySpannerGrid)
    ->Args({100, 3})
    ->Args({100, 10})
    ->ArgNames({"side", "k"})
    ->Unit(benchmark::kMillisecond);

void BM_LazebnikUstimenkoD3(benchmark::State& state) {
  const auto q = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const auto bg = graph::lazebnik_ustimenko_d(3, q);
    benchmark::DoNotOptimize(bg.graph.num_edges());
  }
}
BENCHMARK(BM_LazebnikUstimenkoD3)->Arg(5)->Arg(11);

void BM_Girth(benchmark::State& state) {
  const auto q = static_cast<std::uint64_t>(state.range(0));
  const auto bg = graph::lazebnik_ustimenko_d(3, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::girth(bg.graph));
  }
}
BENCHMARK(BM_Girth)->Arg(5)->Arg(7);

void BM_BfsTree(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  for (auto _ : state) {
    const auto t = graph::bfs_tree(g, 0);
    benchmark::DoNotOptimize(t.depth.back());
  }
}
BENCHMARK(BM_BfsTree)->Arg(10000);

/// Most operator-new calls one prepare may make: preparing is O(n + m)
/// flat-array work, a few dozen arrays whatever n is. main exits 1 above it.
constexpr double kMaxPrepareAllocs = 100;

/// Set by the BM_Prepare rows, gated by main: the largest allocations per
/// prepare of any row that ran, and that row's family.
std::optional<double> prepare_allocs;
std::string prepare_allocs_family;

/// app::prepare_experiment for one perfbench table1_mix family on its
/// graph, cgnp:1000:0.008: graph, instance and (fip06, sqrt, cen, spanner:3,
/// cor2) advice, the setup layer of every campaign trial. Seeds rotate
/// over 16 instances; allocs is operator-new calls per prepare.
void BM_Prepare(benchmark::State& state, const char* algorithm) {
  app::ExperimentSpec spec;
  spec.graph = "cgnp:1000:0.008";
  spec.algorithm = algorithm;
  std::uint64_t prepares = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    spec.seed = 1 + prepares % 16;
    const std::uint64_t before = bench::allocations();
    const app::PreparedExperiment prepared = app::prepare_experiment(spec);
    allocs += bench::allocations() - before;
    benchmark::DoNotOptimize(prepared.instance.get());
    ++prepares;
  }
  const double per_prepare =
      static_cast<double>(allocs) / static_cast<double>(prepares);
  state.counters["allocs"] = per_prepare;
  if (!prepare_allocs || per_prepare > *prepare_allocs) {
    prepare_allocs = per_prepare;
    prepare_allocs_family = algorithm;
  }
}
BENCHMARK_CAPTURE(BM_Prepare, ranked_dfs, "ranked_dfs")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Prepare, fast_wakeup, "fast_wakeup")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Prepare, fip06, "fip06")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Prepare, sqrt, "sqrt")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Prepare, cen, "cen")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Prepare, spanner3, "spanner:3")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Prepare, cor2, "cor2")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Prepare, flooding, "flooding")
    ->Unit(benchmark::kMillisecond);

/// The most production flooding with no probe attached may be slower than
/// ProbeFreeFloodingKernel: the "null probe compiles to no-ops" contract of
/// src/obs/probe.hpp, priced on the default unprofiled path. The bound
/// applies to the Release build CI gates. A RelWithDebInfo (-O2) build reads
/// several percent over it (+1.4 to +12 % on a 4-core Intel Xeon host)
/// because GCC keeps AsyncRunner<FloodingKernel>::send_from out of line in
/// the library's instantiation but inlines it into the probe-free clone.
constexpr double kMaxProbeOverhead = 0.02;

/// The gate's design: kProbePairs pairs of samples, each sample the fastest
/// of kRunsPerSample runs of one kernel, the two kernels' order swapped
/// every pair. Host drift over a pair (tens of milliseconds) is far smaller
/// than over back-to-back repetition blocks (seconds), and the median of
/// the per-pair ratios ignores pairs a neighbour's burst landed in. About
/// 4 s at n = 10^4.
constexpr int kProbePairs = 101;
constexpr int kRunsPerSample = 2;

/// This thread's CPU time: unlike wall time it leaves out the slices a
/// busy host gives other processes.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The fastest of kRunsPerSample runs of `kernel`, in CPU seconds.
double sample_seconds(ProbeWorkload& workload,
                      const sim::KernelRunner& kernel) {
  double best = 0.0;
  for (int r = 0; r < kRunsPerSample; ++r) {
    const double start = thread_cpu_seconds();
    workload.run(kernel);
    const double s = thread_cpu_seconds() - start;
    if (r == 0 || s < best) best = s;
  }
  return best;
}

/// Set by BM_ProbeOverhead, gated by main: disabled / free time, the median
/// over kProbePairs alternating pairs, minus one.
std::optional<double> probe_overhead;

/// The gated row: production flooding with no probe attached (every
/// NodeProbe call one branch on nullptr — the default rise_cli path)
/// against ProbeFreeFloodingKernel. It runs once whatever
/// --benchmark_repetitions says; the pairs are its repetitions.
void BM_ProbeOverhead(benchmark::State& state) {
  ProbeWorkload workload(kProbeNodes);
  const sim::KernelRunner free_kernel =
      sim::make_kernel(ProbeFreeFloodingKernel{});
  const sim::KernelRunner disabled_kernel = algo::flooding_kernel();
  for (auto _ : state) {
    workload.run(free_kernel);  // warm the workspace and caches
    workload.run(disabled_kernel);
    std::vector<double> ratios;
    for (int pair = 0; pair < kProbePairs; ++pair) {
      double free_s = 0.0;
      double disabled_s = 0.0;
      if (pair % 2 == 0) {
        free_s = sample_seconds(workload, free_kernel);
        disabled_s = sample_seconds(workload, disabled_kernel);
      } else {
        disabled_s = sample_seconds(workload, disabled_kernel);
        free_s = sample_seconds(workload, free_kernel);
      }
      ratios.push_back(disabled_s / free_s);
    }
    std::nth_element(ratios.begin(), ratios.begin() + kProbePairs / 2,
                     ratios.end());
    probe_overhead = ratios[kProbePairs / 2] - 1.0;
  }
  state.counters["overhead_pct"] = *probe_overhead * 100.0;
}
BENCHMARK(BM_ProbeOverhead)
    ->Iterations(1)
    ->Repetitions(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bool all_ok = true;
  if (probe_overhead) {
    const bool ok = *probe_overhead <= kMaxProbeOverhead;
    std::printf("%s: disabled-probe overhead %+.2f%% (median of %d "
                "alternating pairs of %d runs, limit %.1f%%)\n",
                ok ? "PASS" : "FAIL", *probe_overhead * 100.0, kProbePairs,
                kRunsPerSample, kMaxProbeOverhead * 100.0);
    all_ok = all_ok && ok;
  }
  if (prepare_allocs) {
    const bool ok = *prepare_allocs <= kMaxPrepareAllocs;
    std::printf("%s: at most %.1f allocations per prepare (%s; limit %.0f)\n",
                ok ? "PASS" : "FAIL", *prepare_allocs,
                prepare_allocs_family.c_str(), kMaxPrepareAllocs);
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}
