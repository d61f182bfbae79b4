// Million-node steady-state allocation gate (PR 7).
//
// The flat-kernel execution path exists so that a single n = 10^6 trial is
// cheap enough to repeat by the hundred: no per-node heap objects, no
// per-event allocation — after one warm-up trial primes the workspace, a
// steady-state trial must perform ZERO heap allocations. This binary proves
// that with the same global operator-new probe bench_campaign_micro uses:
// build G(n, 8/n) once, run flooding through the kernel path with a reused
// RunWorkspace, and count allocations per trial. Exit 1 if any post-warm-up
// trial allocates (CI runs this as the `million-node` job).
//
// Every trial's (events, messages, bits) triple must also match the warm-up
// trial exactly — workspace reuse never changes results.
//
// Part two benchmarks the round-parallel lock-step path: the same flooding
// workload through the sync kernel at each --trial-jobs value, emitting one
// machine-parseable `PARJOB jobs=J digest=... best_ms=...` line per row.
// Gates: every row's digest_run must equal the jobs=1 row (the
// deterministic-reduction contract), and the steady-state allocation rule
// extends to the parallel rows — chunk outboxes, the wake schedule, and the
// pool's batch registry all live in recycled storage.
// tools/check_parallel_trial.py consumes the PARJOB/PARHOST lines for the
// CI speedup gate.
//
//   bench_million_node [--n N] [--trials T] [--trial-jobs J1,J2,...]
//   (defaults: n=1000000, T=3, trial-jobs 1,2,8)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "algo/flooding.hpp"
#include "check/scenario.hpp"
#include "graph/generators.hpp"
#include "runner/thread_pool.hpp"
#include "sim/adversary.hpp"
#include "sim/delay_policy.hpp"
#include "sim/instance.hpp"
#include "sim/kernel.hpp"
#include "sim/parallel.hpp"
#include "support/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting overrides (this binary only). The default operator new[] /
// delete[] forward here, so one pair covers both forms; the aligned pair
// covers over-aligned types (the sync engine's cache-line-aligned chunk
// outboxes).
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, ((n != 0 ? n : 1) + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace rise;
using Clock = std::chrono::steady_clock;

struct TrialOutcome {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t allocs = 0;
  std::uint64_t digest = 0;  ///< sync rows only: check::digest_run
  double wall_ms = 0.0;
};

TrialOutcome run_trial(const sim::KernelRunner& kernel,
                       const sim::AsyncKernelArgs& args) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  sim::RunResult result = kernel.run_async(args);
  const auto t1 = Clock::now();
  TrialOutcome out;
  out.events = result.metrics.events;
  out.messages = result.metrics.messages;
  out.bits = result.metrics.bits;
  // The campaign steady state: scalars extracted, per-node result buffers
  // handed back so the next trial reuses their capacity.
  args.workspace->recycle_result(std::move(result));
  out.allocs = g_allocs.load(std::memory_order_relaxed) - before;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

TrialOutcome run_sync_trial(const sim::KernelRunner& kernel,
                            const sim::SyncKernelArgs& args) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  sim::RunResult result = kernel.run_sync(args);
  const auto t1 = Clock::now();
  TrialOutcome out;
  out.events = result.metrics.events;
  out.messages = result.metrics.messages;
  out.bits = result.metrics.bits;
  out.digest = rise::check::digest_run(result);
  args.workspace->recycle_result(std::move(result));
  out.allocs = g_allocs.load(std::memory_order_relaxed) - before;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

std::vector<std::uint32_t> parse_jobs_list(const char* text) {
  std::vector<std::uint32_t> out;
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    out.push_back(static_cast<std::uint32_t>(std::strtoul(p, &end, 10)));
    if (end == p || out.back() == 0) return {};
    if (*end == ',') {
      p = end + 1;
    } else if (*end == '\0') {
      p = end;
    } else {
      return {};
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  graph::NodeId n = 1'000'000;
  std::size_t trials = 3;
  std::vector<std::uint32_t> jobs_rows = {1, 2, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = static_cast<graph::NodeId>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      trials = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trial-jobs") == 0 && i + 1 < argc) {
      jobs_rows = parse_jobs_list(argv[++i]);
      if (jobs_rows.empty()) {
        std::fprintf(stderr, "error: --trial-jobs expects J1,J2,...\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--n N] [--trials T] [--trial-jobs "
                   "J1,J2,...]\n", argv[0]);
      return 2;
    }
  }

  // Setup (allocations unrestricted): G(n, 8/n) via the geometric-skip
  // generator, KT0/CONGEST instance, wake-all schedule so flooding touches
  // every node and every edge regardless of connectivity.
  const auto t_setup = Clock::now();
  Rng graph_rng(1);
  graph::Graph g = graph::gnp(n, 8.0 / static_cast<double>(n), graph_rng);
  const std::size_t m = g.num_edges();
  sim::InstanceOptions options;
  options.knowledge = sim::Knowledge::KT0;
  options.bandwidth = sim::Bandwidth::CONGEST;
  Rng instance_rng(2);
  const sim::Instance instance =
      sim::Instance::create(std::move(g), options, instance_rng);
  const auto delays = sim::unit_delay();
  const sim::WakeSchedule schedule = sim::wake_all(n);
  const sim::KernelRunner kernel = algo::flooding_kernel();
  sim::RunWorkspace workspace;
  const double setup_ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - t_setup)
                              .count();
  std::printf("setup: n=%llu m=%zu in %.0f ms\n",
              static_cast<unsigned long long>(n), m, setup_ms);

  sim::AsyncKernelArgs args;
  args.instance = &instance;
  args.delays = delays.get();
  args.schedule = &schedule;
  args.seed = 7;
  args.workspace = &workspace;

  // Warm-up: sizes every workspace vector (channels, event queue, per-node
  // metrics) to its steady-state capacity.
  const TrialOutcome warm = run_trial(kernel, args);
  std::printf(
      "warmup: events=%llu messages=%llu allocs=%llu in %.0f ms\n",
      static_cast<unsigned long long>(warm.events),
      static_cast<unsigned long long>(warm.messages),
      static_cast<unsigned long long>(warm.allocs), warm.wall_ms);

  std::uint64_t steady_allocs = 0;
  bool results_stable = true;
  double best_ms = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    const TrialOutcome out = run_trial(kernel, args);
    steady_allocs += out.allocs;
    results_stable = results_stable && out.events == warm.events &&
                     out.messages == warm.messages && out.bits == warm.bits;
    best_ms = (t == 0) ? out.wall_ms : std::min(best_ms, out.wall_ms);
    std::printf("trial %zu: events=%llu allocs=%llu in %.0f ms (%.2fM ev/s)\n",
                t, static_cast<unsigned long long>(out.events),
                static_cast<unsigned long long>(out.allocs), out.wall_ms,
                out.wall_ms > 0.0
                    ? static_cast<double>(out.events) / out.wall_ms / 1000.0
                    : 0.0);
  }

  if (!results_stable) {
    std::printf("FAIL: steady-state trials diverged from the warm-up run\n");
    return 1;
  }
  if (steady_allocs != 0) {
    std::printf("FAIL: %llu heap allocations across %zu steady-state trials "
                "(gate: 0)\n",
                static_cast<unsigned long long>(steady_allocs), trials);
    return 1;
  }
  std::printf("PASS: 0 allocations in steady state; best trial %.0f ms\n",
              best_ms);

  // Part two: the same flooding workload through the round-parallel
  // lock-step path, one row per --trial-jobs value. Each row gets its own
  // pool (created before the row's warm-up, so thread startup never counts
  // against the allocation gate) and a warm-up trial that sizes the chunk
  // outboxes for that job count; the timed trials then run under the same
  // zero-allocation rule as the async gate above.
  std::printf("PARHOST cores=%zu\n", runner::ThreadPool::hardware_threads());
  std::uint64_t base_digest = 0;
  double base_best_ms = 0.0;
  bool par_ok = true;
  for (const std::uint32_t jobs : jobs_rows) {
    runner::ThreadPool pool(jobs);
    runner::PoolChunkExecutor executor(&pool);
    sim::SyncKernelArgs sargs;
    sargs.instance = &instance;
    sargs.schedule = &schedule;
    sargs.seed = 7;
    sargs.workspace = &workspace;
    if (jobs > 1) {
      sargs.parallel.jobs = jobs;
      sargs.parallel.executor = &executor;
    }
    // One warm-up sizes the flat inbox, the candidate bitmap and this job
    // count's chunk outboxes and send buckets; every later trial reuses
    // them at the same high-water marks.
    const TrialOutcome swarm = run_sync_trial(kernel, sargs);
    std::uint64_t row_allocs = 0;
    bool row_stable = true;
    double row_best_ms = swarm.wall_ms;
    for (std::size_t t = 0; t < trials; ++t) {
      const TrialOutcome out = run_sync_trial(kernel, sargs);
      row_allocs += out.allocs;
      row_stable = row_stable && out.digest == swarm.digest;
      row_best_ms = (t == 0) ? out.wall_ms : std::min(row_best_ms, out.wall_ms);
    }
    if (base_digest == 0) {
      base_digest = swarm.digest;
      base_best_ms = row_best_ms;
    }
    const double evps = row_best_ms > 0.0
                            ? static_cast<double>(swarm.events) / row_best_ms /
                                  1000.0
                            : 0.0;
    std::printf("PARJOB jobs=%u digest=%016llx best_ms=%.3f events=%llu "
                "evps=%.2fM allocs=%llu speedup=%.2f\n",
                jobs, static_cast<unsigned long long>(swarm.digest),
                row_best_ms, static_cast<unsigned long long>(swarm.events),
                evps, static_cast<unsigned long long>(row_allocs),
                row_best_ms > 0.0 ? base_best_ms / row_best_ms : 0.0);
    if (!row_stable || swarm.digest != base_digest) {
      std::printf("FAIL: trial-jobs=%u digest diverged from the sequential "
                  "row\n", jobs);
      par_ok = false;
    }
    if (row_allocs != 0) {
      std::printf("FAIL: %llu heap allocations across %zu parallel "
                  "steady-state trials at trial-jobs=%u (gate: 0)\n",
                  static_cast<unsigned long long>(row_allocs), trials, jobs);
      par_ok = false;
    }
  }
  if (!par_ok) return 1;
  std::printf("PASS: parallel rows digest-identical, 0 steady-state "
              "allocations\n");
  return 0;
}
