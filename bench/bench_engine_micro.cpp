// google-benchmark micro-benchmarks for the substrates: simulator event
// throughput, graph generators, the greedy spanner, the D(k,q) construction,
// and girth computation. These quantify the cost of the experiment harness
// itself, independent of any paper claim.
//
// One pair is gated: when both probe benchmarks run (e.g.
// --benchmark_filter=Probe --benchmark_repetitions=9), main prints the
// disabled-probe overhead and exits 1 if it is above kMaxProbeOverhead.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "algo/flooding.hpp"
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

/// Same flooding workload under adversarial random delays in [1, tau], run
/// once per timeline backend so a regression in either the calendar queue or
/// the heap fallback is visible in isolation.
void BM_AsyncFloodingTimeline(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto mode = state.range(1) == 0 ? sim::EventQueue::Mode::kBuckets
                                        : sim::EventQueue::Mode::kHeap;
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  const auto delays = sim::random_delay(16, 5);
  const auto schedule = sim::wake_single(0);
  const sim::KernelRunner kernel = algo::flooding_kernel();
  sim::RunWorkspace workspace;
  sim::AsyncKernelArgs args;
  args.instance = &inst;
  args.delays = delays.get();
  args.schedule = &schedule;
  args.seed = 1;
  args.queue_mode = mode;
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
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->ArgNames({"n", "heap"});

/// A flooding kernel clone with zero probe calls — the pre-observability
/// hot path. Paired with BM_ProbeDisabledFlooding below, it prices the
/// disabled-probe branches (ctx.probe() + the NodeProbe null checks in the
/// production algo::flooding_kernel) that sit on every wake. main gates the
/// pair at kMaxProbeOverhead.
struct ProbeFreeFloodingKernel {
  void reset(const sim::Instance&, sim::RunWorkspace*) {}
  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause) {
    ctx.broadcast(sim::make_message(algo::kFloodWake, {}, 8));
  }
  template <class Ctx>
  void on_message(Ctx&, const sim::Incoming&) {}
};

void probe_overhead_workload(benchmark::State& state,
                             const sim::KernelRunner& kernel,
                             obs::Probe* probe) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  const auto delays = sim::unit_delay();
  const auto schedule = sim::wake_single(0);
  sim::RunWorkspace workspace;
  sim::AsyncKernelArgs args;
  args.instance = &inst;
  args.delays = delays.get();
  args.schedule = &schedule;
  args.seed = 1;
  args.probe = probe;
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

void BM_ProbeFreeFlooding(benchmark::State& state) {
  probe_overhead_workload(state, sim::make_kernel(ProbeFreeFloodingKernel{}),
                          nullptr);
}
BENCHMARK(BM_ProbeFreeFlooding)->Arg(10000);

void BM_ProbeDisabledFlooding(benchmark::State& state) {
  // Production flooding (probe calls compiled in), no probe attached: every
  // NodeProbe call is one branch on nullptr. This is the default rise_cli
  // path, so the <= 2% gate is the cost every unprofiled run pays.
  probe_overhead_workload(state, algo::flooding_kernel(), nullptr);
}
BENCHMARK(BM_ProbeDisabledFlooding)->Arg(10000);

void BM_ProbeEnabledFlooding(benchmark::State& state) {
  // Informative (not gated): full attribution — phase marks, counters,
  // per-send accounting, queue statistics.
  obs::Probe probe;
  probe_overhead_workload(state, algo::flooding_kernel(), &probe);
}
BENCHMARK(BM_ProbeEnabledFlooding)->Arg(10000);

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
/// state: prices the nap bookkeeping (nap ring, drop accounting) the
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

void BM_RankedDfs(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT1);
  const auto delays = sim::unit_delay();
  for (auto _ : state) {
    const auto result = sim::run_async(inst, *delays, sim::wake_all(n), 1,
                                       algo::ranked_dfs_kernel());
    benchmark::DoNotOptimize(result.metrics.messages);
  }
}
BENCHMARK(BM_RankedDfs)->Arg(250)->Arg(500);

void BM_GreedySpanner(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 0.1, rng);
  for (auto _ : state) {
    const auto s = graph::greedy_spanner(g, 3);
    benchmark::DoNotOptimize(s.num_edges());
  }
}
BENCHMARK(BM_GreedySpanner)->Arg(300)->Arg(600);

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

/// The most BM_ProbeDisabledFlooding may be slower than
/// BM_ProbeFreeFlooding: the "null probe compiles to no-ops" contract of
/// src/obs/probe.hpp, priced on the default unprofiled path.
constexpr double kMaxProbeOverhead = 0.02;

/// Console output as usual, plus the real time of the probe pair: the
/// median aggregate under --benchmark_repetitions, else the single run.
class ProbeOverheadReporter : public benchmark::ConsoleReporter {
 public:
  ProbeOverheadReporter() : ConsoleReporter(OO_None) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      const std::string& name = run.run_name.function_name;
      double* slot = name == "BM_ProbeFreeFlooding"       ? &probe_free
                     : name == "BM_ProbeDisabledFlooding" ? &probe_disabled
                                                          : nullptr;
      const bool median = run.run_type == Run::RT_Aggregate &&
                          run.aggregate_name == "median";
      const bool single =
          run.run_type == Run::RT_Iteration && run.repetitions <= 1;
      if (slot != nullptr && !run.error_occurred && (median || single)) {
        *slot = run.GetAdjustedRealTime();
      }
    }
  }

  double probe_free = 0.0;      ///< 0 until BM_ProbeFreeFlooding reported
  double probe_disabled = 0.0;  ///< 0 until BM_ProbeDisabledFlooding did
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  ProbeOverheadReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (reporter.probe_free <= 0.0 || reporter.probe_disabled <= 0.0) {
    return 0;
  }
  const double overhead =
      (reporter.probe_disabled - reporter.probe_free) / reporter.probe_free;
  const bool ok = overhead <= kMaxProbeOverhead;
  std::printf("probe-free baseline : %14.1f\n"
              "probe disabled      : %14.1f\n"
              "%s: disabled-probe overhead %+.2f%% (limit %.1f%%)\n",
              reporter.probe_free, reporter.probe_disabled,
              ok ? "PASS" : "FAIL", overhead * 100.0,
              kMaxProbeOverhead * 100.0);
  return ok ? 0 : 1;
}
