// The adversary-hunt gate and hunt-throughput micro-benchmark.
//
// Gate: two fixed-seed message hunts (flooding and fip06 on cgnp:256:0.05,
// n in [256, 512], budget 192, the equal-budget random baseline on). The
// binary exits 1 unless, for each, the champion's checked replay is clean,
// the champion strictly beats the random baseline, the champion stays at or
// below its analytical envelope when one is known (a champion above it is a
// conformance bug), and the champion's corpus entry replays clean and
// digest-stable through check::replay_corpus. Every value is a pure
// function of the pinned seeds.
//
// Throughput: evaluations per second of the search driver's hot path
// (prepared configs + per-worker workspaces) at smaller cases. Each runs
// run_hunt twice with identical options, best-of-N wall clock; the two
// reports must agree on champion spec, value, and digest (the hunt
// determinism contract), and the binary exits 1 on any mismatch.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "check/corpus.hpp"
#include "check/scenario.hpp"
#include "search/hunt.hpp"

namespace {

using namespace rise;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Case {
  const char* name;
  const char* graph;
  const char* algorithm;
  search::Objective objective;
};

bool reports_agree(const search::HuntReport& a, const search::HuntReport& b) {
  return a.champion.spec.graph == b.champion.spec.graph &&
         a.champion.spec.schedule == b.champion.spec.schedule &&
         a.champion.spec.delay == b.champion.spec.delay &&
         a.champion.spec.seed == b.champion.spec.seed &&
         a.champion_value == b.champion_value &&
         a.champion_digest == b.champion_digest;
}

/// One gated hunt: search options exactly as `rise_cli hunt --graph
/// cgnp:256:0.05 --algo ALGO --objective messages --seed 7 --budget 192
/// --min-nodes 256 --max-nodes 512 --jobs 1 --baseline random` sets them.
search::HuntOptions gated_hunt(const char* algorithm) {
  search::HuntOptions options;
  options.initial.spec.graph = "cgnp:256:0.05";
  options.initial.spec.schedule = "single";
  options.initial.spec.algorithm = algorithm;
  options.initial.spec.delay = "unit";
  options.initial.spec.seed = 7;
  options.initial.family = check::family_for_algorithm(algorithm);
  options.objective = search::Objective::kMessages;
  options.seed = 7;
  options.budget = 192;
  options.jobs = 1;
  options.baseline = true;
  options.limits.min_nodes = 256;
  options.limits.max_nodes = 512;
  return options;
}

/// Runs one gated hunt and prints its verdict line; false on a failed rule.
bool run_gated_hunt(const char* name, const char* algorithm) {
  const search::HuntReport report = search::run_hunt(gated_hunt(algorithm));
  const double value = report.champion_value;
  const double baseline = report.baseline_value;
  std::printf("[gate] %s: champion=%.0f baseline=%.0f ratio=%.3f", name,
              value, baseline, baseline > 0.0 ? value / baseline : 0.0);
  if (report.envelope > 0.0) std::printf(" envelope=%.0f", report.envelope);
  std::printf("\n");

  bool ok = true;
  auto fail = [&ok, name](const std::string& why) {
    std::printf("FAIL %s: %s\n", name, why.c_str());
    ok = false;
  };
  if (!report.champion_clean) fail("champion replay not clean");
  if (!report.baseline_run || baseline <= 0.0) {
    fail("no usable random baseline");
  } else if (value <= baseline) {
    fail("champion does not beat the equal-budget random baseline");
  }
  if (report.envelope > 0.0 && value > report.envelope * (1.0 + 1e-9)) {
    fail("champion exceeds its analytical envelope (conformance bug)");
  }
  if (report.champion_clean) {
    const check::CorpusReplayReport replay =
        check::replay_corpus({search::champion_entry(report)});
    if (!replay.ok()) fail("corpus entry replay: " + replay.failures.front());
  }
  return ok;
}

}  // namespace

int main() {
  bool gates_hold = run_gated_hunt("flooding-messages", "flooding");
  gates_hold = run_gated_hunt("fip06-messages", "fip06") && gates_hold;

  const std::vector<Case> cases = {
      {"flooding_messages", "cgnp:64:0.1", "flooding",
       search::Objective::kMessages},
      {"fip06_messages", "cgnp:64:0.1", "fip06",
       search::Objective::kMessages},
      {"flooding_rho_awk", "cgnp:64:0.1", "flooding",
       search::Objective::kRhoAwk},
  };

  std::printf("%-20s %10s %10s %12s %12s %8s\n", "case", "evals", "wall_ms",
              "evals_per_s", "champion", "ratio");
  bool deterministic = true;
  for (const Case& c : cases) {
    search::HuntOptions options;
    options.initial.spec.graph = c.graph;
    options.initial.spec.schedule = "single";
    options.initial.spec.algorithm = c.algorithm;
    options.initial.spec.delay = "unit";
    options.initial.spec.seed = 1;
    options.objective = c.objective;
    options.budget = 128;
    options.lambda = 8;
    options.seed = 42;
    options.jobs = 1;
    options.baseline = false;
    options.limits.max_nodes = 128;

    double best_ms = 0.0;
    search::HuntReport first;
    for (int rep = 0; rep < 2; ++rep) {
      const Clock::time_point t0 = Clock::now();
      search::HuntReport report = search::run_hunt(options);
      const double ms = ms_between(t0, Clock::now());
      if (rep == 0) {
        best_ms = ms;
        first = std::move(report);
      } else {
        if (ms < best_ms) best_ms = ms;
        if (!reports_agree(first, report)) {
          std::printf("FAIL %s: repeated hunts disagree\n", c.name);
          deterministic = false;
        }
      }
    }
    const double evals_per_s =
        best_ms > 0.0
            ? static_cast<double>(first.evaluations) / (best_ms / 1000.0)
            : 0.0;
    std::printf("%-20s %10llu %10.1f %12.0f %12.0f %8.3f\n", c.name,
                static_cast<unsigned long long>(first.evaluations), best_ms,
                evals_per_s, first.champion_value, first.envelope_ratio());
  }
  if (deterministic) {
    std::printf("determinism: repeated hunts bit-identical\n");
  }
  if (gates_hold) {
    std::printf("PASS: gated hunts beat random, stay within their envelopes "
                "and replay clean\n");
  }
  return gates_hold && deterministic ? 0 : 1;
}
