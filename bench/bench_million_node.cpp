// Million-node steady-state allocation and round-parallel gates.
//
// The flat-kernel execution path exists so that a single n = 10^6 trial is
// cheap enough to repeat by the hundred: no per-node heap objects, no
// per-event allocation — after one warm-up trial primes the workspace, a
// steady-state trial must perform ZERO heap allocations. This binary proves
// that with a global operator-new probe: build G(n, 8/n) once, run
// flooding through the kernel path with a reused RunWorkspace, and count
// allocations per trial. Exit 1 if any post-warm-up trial allocates.
//
// Every trial's (events, messages, bits) triple must also match the warm-up
// trial exactly — workspace reuse never changes results.
//
// Both parts run twice: from the wake-all schedule, and from random:0.5 (a
// random half of the nodes woken at time 0, as `--schedule random:0.5`
// builds it), which prices a large wake schedule on the timing wheel and a
// wave of message-woken nodes. The speedup gate reads the wake-all rows;
// the allocation and digest gates hold on every row.
//
// Part two benchmarks the round-parallel lock-step path: the same flooding
// workload through the sync kernel at each --trial-jobs value, one
// `PARJOB jobs=J digest=... best_ms=... speedup=...` line per row. Gates:
// every row's digest_run must equal the jobs=1 row (the
// deterministic-reduction contract); the steady-state allocation rule
// extends to the parallel rows — chunk outboxes, the wake schedule, and the
// pool's batch registry all live in recycled storage; and the largest row
// must reach the speedup target below over the jobs=1 row.
//
//   bench_million_node [--n N] [--trials T] [--trial-jobs J1,J2,...]
//   (defaults: n=1000000, T=3, trial-jobs 1,4 — the gated configuration)
//
// Exit 0 when every gate holds, 1 when one fails, 2 on a bad flag.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "algo/flooding.hpp"
#include "alloc_count.hpp"
#include "check/scenario.hpp"
#include "graph/generators.hpp"
#include "runner/thread_pool.hpp"
#include "sim/adversary.hpp"
#include "sim/delay_policy.hpp"
#include "sim/instance.hpp"
#include "sim/kernel.hpp"
#include "sim/parallel.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

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
  const std::uint64_t before = bench::allocations();
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
  out.allocs = bench::allocations() - before;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

TrialOutcome run_sync_trial(const sim::KernelRunner& kernel,
                            const sim::SyncKernelArgs& args) {
  const std::uint64_t before = bench::allocations();
  const auto t0 = Clock::now();
  sim::RunResult result = kernel.run_sync(args);
  const auto t1 = Clock::now();
  TrialOutcome out;
  out.events = result.metrics.events;
  out.messages = result.metrics.messages;
  out.bits = result.metrics.bits;
  out.digest = rise::check::digest_run(result);
  args.workspace->recycle_result(std::move(result));
  out.allocs = bench::allocations() - before;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

/// The round-parallel speedup gate: the largest --trial-jobs row must run
/// kSpeedupEfficiency x min(jobs, cores) times faster than the jobs=1 row.
/// Below kSpeedupMinCores hardware threads a speedup target means nothing,
/// so the rule is skipped (with a SKIP line); the digest and allocation
/// gates always apply.
constexpr double kSpeedupEfficiency = 0.6;
constexpr std::size_t kSpeedupMinCores = 4;

/// Reads `text` as a decimal count in [lo, hi] into `out` (hi must fit T);
/// prints the error and returns false otherwise.
template <typename T>
bool parse_count(const char* flag, const std::string& text, std::uint64_t lo,
                 std::uint64_t hi, T& out) {
  std::uint64_t v = 0;
  if (!parse_digits(text, v)) {
    std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n",
                 flag, text.c_str());
    return false;
  }
  if (v < lo || v > hi) {
    std::fprintf(stderr, "error: %s %s is outside [%llu, %llu]\n", flag,
                 text.c_str(), static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

/// Runs the async rows and then one sync row per --trial-jobs value from
/// `schedule`; false when a gate fails. The speedup gate applies only when
/// `gate_speedup` is set.
bool run_rows(const sim::Instance& instance, const sim::DelayPolicy& delays,
              const sim::WakeSchedule& schedule,
              const sim::KernelRunner& kernel, sim::RunWorkspace& workspace,
              std::size_t trials, const std::vector<std::uint32_t>& jobs_rows,
              bool gate_speedup) {
  sim::AsyncKernelArgs args;
  args.instance = &instance;
  args.delays = &delays;
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
    return false;
  }
  if (steady_allocs != 0) {
    std::printf("FAIL: %llu heap allocations across %zu steady-state trials "
                "(gate: 0)\n",
                static_cast<unsigned long long>(steady_allocs), trials);
    return false;
  }
  std::printf("PASS: 0 allocations in steady state; best trial %.0f ms\n",
              best_ms);

  // Part two: the same flooding workload through the round-parallel
  // lock-step path, one row per --trial-jobs value. Each row gets its own
  // pool (created before the row's warm-up, so thread startup never counts
  // against the allocation gate) and a warm-up trial that sizes the chunk
  // outboxes for that job count; the timed trials then run under the same
  // zero-allocation rule as the async gate above.
  // jobs_rows is sorted and starts at 1: the first row is the sequential
  // reference, the last one the row the speedup gate reads.
  std::uint64_t base_digest = 0;
  double base_best_ms = 0.0;
  double speedup = 0.0;
  bool par_ok = true;
  for (const std::uint32_t jobs : jobs_rows) {
    runner::ThreadPool pool(runner::thread_budget(1, jobs));
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
    if (jobs == 1) {
      base_digest = swarm.digest;
      base_best_ms = row_best_ms;
    }
    speedup = row_best_ms > 0.0 ? base_best_ms / row_best_ms : 0.0;
    const double evps = row_best_ms > 0.0
                            ? static_cast<double>(swarm.events) / row_best_ms /
                                  1000.0
                            : 0.0;
    std::printf("PARJOB jobs=%u digest=%016llx best_ms=%.3f events=%llu "
                "evps=%.2fM allocs=%llu speedup=%.2f\n",
                jobs, static_cast<unsigned long long>(swarm.digest),
                row_best_ms, static_cast<unsigned long long>(swarm.events),
                evps, static_cast<unsigned long long>(row_allocs), speedup);
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

  const std::uint32_t top_jobs = jobs_rows.back();
  const std::size_t cores = runner::ThreadPool::hardware_threads();
  if (!gate_speedup) {
    std::printf("speedup gate not applied to this schedule\n");
  } else if (cores < kSpeedupMinCores) {
    std::printf("SKIP speedup gate: %zu hardware thread(s) < %zu (digest and "
                "allocation gates still applied)\n", cores, kSpeedupMinCores);
  } else {
    const double target =
        kSpeedupEfficiency *
        static_cast<double>(std::min<std::size_t>(top_jobs, cores));
    const bool fast_enough = speedup >= target;
    std::printf("%s: trial-jobs=%u on %zu cores: speedup %.2fx vs target "
                "%.2fx (%.1f x min(jobs, cores))\n",
                fast_enough ? "PASS" : "FAIL", top_jobs, cores, speedup,
                target, kSpeedupEfficiency);
    par_ok = par_ok && fast_enough;
  }
  if (!par_ok) return false;
  std::printf("PASS: parallel rows digest-identical, 0 steady-state "
              "allocations\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  graph::NodeId n = 1'000'000;
  std::size_t trials = 3;
  std::vector<std::uint32_t> jobs_rows = {1, 4};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const std::string value = i + 1 < argc ? argv[i + 1] : "";
    bool ok = i + 1 < argc;
    if (ok && flag == "--n") {
      // gnp(n, 8/n) needs 8/n <= 1.
      ok = parse_count("--n", value, 8,
                       std::numeric_limits<graph::NodeId>::max(), n);
    } else if (ok && flag == "--trials") {
      ok = parse_count("--trials", value, 1, 1'000'000, trials);
    } else if (ok && flag == "--trial-jobs") {
      jobs_rows.clear();
      for (const std::string& field : split(value, ',')) {
        std::uint32_t jobs = 0;
        ok = ok && parse_count("--trial-jobs", field, 1, runner::kMaxThreads,
                               jobs);
        jobs_rows.push_back(jobs);
      }
      // Row order is job order, so the jobs=1 row (the digest and speedup
      // reference) runs first and the largest row last.
      std::sort(jobs_rows.begin(), jobs_rows.end());
      jobs_rows.erase(std::unique(jobs_rows.begin(), jobs_rows.end()),
                      jobs_rows.end());
      if (ok && (jobs_rows.front() != 1 || jobs_rows.size() < 2)) {
        std::fprintf(stderr, "error: --trial-jobs %s must contain 1 and a "
                     "larger count\n", value.c_str());
        ok = false;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--n N] [--trials T] [--trial-jobs "
                   "1,J2,...]\n", argv[0]);
      return 2;
    }
    if (!ok) return 2;
    ++i;
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
  const sim::WakeSchedule wake_all = sim::wake_all(n);
  Rng wake_rng(3);
  const sim::WakeSchedule wake_half = sim::wake_random_subset(n, 0.5, wake_rng);
  const sim::KernelRunner kernel = algo::flooding_kernel();
  sim::RunWorkspace workspace;
  const double setup_ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - t_setup)
                              .count();
  std::printf("setup: n=%llu m=%zu in %.0f ms\n",
              static_cast<unsigned long long>(n), m, setup_ms);

  bool ok = true;
  for (const auto& [name, schedule, gate_speedup] :
       {std::tuple{"all", &wake_all, true},
        std::tuple{"random:0.5", &wake_half, false}}) {
    std::printf("schedule %s: %zu wake-ups\n", name, schedule->wakes.size());
    ok = run_rows(instance, *delays, *schedule, kernel, workspace, trials,
                  jobs_rows, gate_speedup) && ok;
  }
  return ok ? 0 : 1;
}
