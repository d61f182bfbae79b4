// The paper's claims, measured and gated: every Table-1 row declared in
// src/check/claims.hpp, run through the campaign runner on all cores.
//
//   bench_claims [--rows ID,...] [--n N,...]
//
// Prints, for the selected claims (default: all):
//   (1) the Table-1 summary: 16-seed distributions of every claim algorithm
//       on one shared workload, G(1000, 0.008) with a random 20% awake set,
//       beside the paper's bound and the claim's worst bound ratio;
//   (2) each claim's sweep: every algorithm x workload, sized workloads at
//       each --n (default 250,500,1000,2000), 4 seeds each. A bound column
//       holds the worst ratio measured / expression over the seeds; the
//       header says what it must stay under.
// Exits 1 when a run fails or leaves nodes asleep, or a bound does not hold
// (each failure names the claim, the workload and the ratio), and 2 on a
// usage error or an artifact path that cannot be written.
// RISE_BENCH_JSON_DIR collects the per-trial BENCH_*.json artifacts, as for
// every campaign-driven bench.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "check/claims.hpp"
#include "support/strings.hpp"

namespace {

using namespace rise;

constexpr std::size_t kSummarySeeds = 16;
constexpr std::size_t kSweepSeeds = 4;

struct Options {
  std::vector<const check::Claim*> rows;
  std::vector<std::uint32_t> sizes = {250, 500, 1000, 2000};
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_claims [--rows ID,...] [--n N,...]\n",
               message.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (const check::Claim& claim : check::claims()) {
    options.rows.push_back(&claim);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if ((flag != "--rows" && flag != "--n") || i + 1 == argc) {
      usage_error("unexpected argument '" + flag + "'");
    }
    const std::vector<std::string> values = split(argv[++i], ',');
    if (flag == "--rows") {
      options.rows.clear();
      for (const std::string& id : values) {
        try {
          options.rows.push_back(&check::find_claim(id));
        } catch (const CheckError& e) {
          usage_error(e.what());
        }
      }
    } else {
      options.sizes.clear();
      for (const std::string& value : values) {
        std::uint64_t n = 0;
        if (!parse_digits(value, n) || n < 4 || n > (1u << 24)) {
          usage_error("--n expects sizes in [4, 2^24], got '" + value + "'");
        }
        options.sizes.push_back(static_cast<std::uint32_t>(n));
      }
    }
  }
  return options;
}

std::string artifact_name(const std::string& prefix,
                          const app::ExperimentSpec& spec,
                          bool with_workload) {
  std::string name = prefix + spec.algorithm;
  if (with_workload) name += "_" + spec.graph + "_" + spec.schedule;
  for (char& c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    if (!keep) c = '_';
  }
  return name;
}

std::string fmt_slack(double slack) {
  return bench::fmt_f(slack, slack == static_cast<double>(
                                           static_cast<long long>(slack))
                                 ? 0
                                 : 2);
}

/// One campaign over a claim workload, checked trial by trial.
struct Sweep {
  runner::CampaignResult result;
  std::vector<check::BoundCheck> worst;  ///< per bound: a failure, else max
  std::uint64_t advice_max = 0;
  SampleStats advice_avg;
  double edges = 0.0;  ///< mean m over completed trials
};

std::vector<std::string> g_failures;

Sweep run_sweep(const check::Claim& claim, const app::ExperimentSpec& spec,
                std::size_t seeds, const std::string& artifact) {
  Sweep s;
  s.result = bench::campaign_sweep(spec, seeds, artifact);
  s.worst.resize(claim.bounds.size());
  SampleStats edges;
  for (const runner::TrialResult& t : s.result.trials) {
    const std::string where = claim.id + ": " + spec.algorithm + " on " +
                              spec.graph + " / " + spec.schedule + " (seed " +
                              std::to_string(t.trial.spec.seed) + ")";
    if (!t.ok || !t.all_awake) {
      g_failures.push_back(where + ": " +
                           (t.ok ? std::string("nodes left asleep") : t.error));
      continue;
    }
    edges.add(static_cast<double>(t.num_edges));
    s.advice_max = std::max(s.advice_max, t.advice_max_bits);
    s.advice_avg.add(t.advice_avg_bits);
    const check::Measurement m =
        check::measure(claim, t.trial.spec, t, t.profile->awake_max);
    const std::vector<check::BoundCheck> checks = check::check_bounds(claim, m);
    for (std::size_t i = 0; i < checks.size(); ++i) {
      const check::BoundCheck& c = checks[i];
      const check::Bound& b = *c.bound;
      if (!c.passed) {
        g_failures.push_back(
            where + ": " + check::quantity_name(b.quantity) + " " +
            bench::fmt_f(c.measured, 1) + " / (" + b.expression + ") = " +
            bench::fmt_f(c.ratio, 3) + ", not " +
            check::relation_symbol(b.relation) + " " + fmt_slack(b.slack));
      }
      check::BoundCheck& w = s.worst[i];
      if (w.bound == nullptr || (w.passed && !c.passed) ||
          (w.passed == c.passed && c.ratio > w.ratio)) {
        w = c;
      }
    }
  }
  if (edges.count() > 0) s.edges = edges.mean();
  return s;
}

/// The "runs (fail/err)" cell.
std::string runs_cell(const runner::ConfigStats& t) {
  return bench::fmt_u(t.trials) + " (" + bench::fmt_u(t.failures) + "/" +
         bench::fmt_u(t.errors) + ")";
}

/// "quantity ratio REL slack" for the bound closest to its limit.
std::string tightest(const std::vector<check::BoundCheck>& worst) {
  const check::BoundCheck* pick = nullptr;
  for (const check::BoundCheck& c : worst) {
    if (c.bound == nullptr) continue;
    if (pick == nullptr ||
        c.ratio / c.bound->slack > pick->ratio / pick->bound->slack) {
      pick = &c;
    }
  }
  if (pick == nullptr) return "-";
  return std::string(check::quantity_name(pick->bound->quantity)) + " " +
         bench::fmt_f(pick->ratio, 3) + " " +
         check::relation_symbol(pick->bound->relation) + " " +
         fmt_slack(pick->bound->slack);
}

void summary(const Options& options) {
  bench::section(
      "Table 1: 16-seed distributions on cgnp:1000:0.008 / random:0.2 "
      "(campaign runner, all cores)");
  bench::Table table({"claim", "algo", "messages (mean +- sd)",
                      "msgs p50/p90/max", "time units (mean +- sd)",
                      "advice max/avg (bits)", "runs (fail/err)",
                      "paper bound (T | M | A)", "tightest bound"});
  for (const check::Claim* claim : options.rows) {
    for (const std::string& algorithm : claim->algorithms) {
      app::ExperimentSpec spec;
      spec.graph = "cgnp:1000:0.008";
      spec.schedule = "random:0.2";
      spec.algorithm = algorithm;
      spec.seed = 2026;
      const Sweep s = run_sweep(*claim, spec, kSummarySeeds,
                                artifact_name("table1_", spec, false));
      const runner::ConfigStats& t = s.result.total;
      table.add_row(
          {claim->id, algorithm, bench::fmt_mean_sd(t.messages, 0),
           bench::fmt_quantiles(t.messages, 0),
           bench::fmt_mean_sd(t.time_units, 1),
           s.advice_avg.count() > 0 && s.advice_max > 0
               ? bench::fmt_u(s.advice_max) + " / " +
                     bench::fmt_f(s.advice_avg.mean(), 1)
               : "-",
           runs_cell(t), claim->table1, tightest(s.worst)});
    }
  }
  table.print();
}

void claim_sweep(const check::Claim& claim, const Options& options) {
  bench::section(claim.id + ": " + claim.paper + ", " + claim.model +
                 " -- paper: " + claim.table1);
  std::vector<std::string> headers = {"algo", "graph", "schedule",
                                      "n",    "m",     "runs"};
  for (const check::Bound& b : claim.bounds) {
    headers.push_back(std::string(check::quantity_name(b.quantity)) + "/(" +
                      b.expression + ") " + check::relation_symbol(b.relation) +
                      " " + fmt_slack(b.slack));
  }
  bench::Table table(headers);
  for (const std::string& algorithm : claim.algorithms) {
    for (const check::Workload& w : claim.workloads) {
      for (const std::string& graph :
           check::workload_graphs(w.graph, options.sizes)) {
        app::ExperimentSpec spec;
        spec.graph = graph;
        spec.schedule = w.schedule;
        spec.algorithm = algorithm;
        spec.seed = 17;
        const Sweep s = run_sweep(claim, spec, kSweepSeeds,
                                  artifact_name("claim_" + claim.id + "_",
                                                spec, true));
        const runner::ConfigStats& t = s.result.total;
        std::vector<std::string> row = {
            algorithm, graph, w.schedule,
            s.result.trials.empty()
                ? "-"
                : bench::fmt_u(s.result.trials.front().num_nodes),
            bench::fmt_f(s.edges, 0), runs_cell(t)};
        for (const check::BoundCheck& c : s.worst) {
          const std::string mark = c.passed ? "" : " !";
          row.push_back(c.bound == nullptr ? "-"
                                           : bench::fmt_f(c.ratio, 3) + mark);
        }
        table.add_row(std::move(row));
      }
    }
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  try {
    summary(options);
    for (const check::Claim* claim : options.rows) claim_sweep(*claim, options);
  } catch (const CheckError& e) {
    usage_error(e.what());  // e.g. an unwritable RISE_BENCH_JSON_DIR
  }
  if (!g_failures.empty()) {
    std::printf("\n%zu bound failure(s):\n", g_failures.size());
    for (const std::string& f : g_failures) std::printf("FAIL %s\n", f.c_str());
    return 1;
  }
  std::printf("\nevery bound holds.\n");
  return 0;
}
