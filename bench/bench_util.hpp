// Shared helpers for the experiment harnesses in bench/: fixed-width table
// printing in the style of the paper's Table 1, ratio columns that make the
// asymptotic *shape* of a measurement visible (a flat ratio column means the
// measurement tracks the predicted bound), a campaign-runner front end so
// every spec-string seed sweep runs on all cores and can dump
// machine-readable BENCH_*.json artifacts, and a serial seed sweep for the
// lower-bound families no spec string describes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/result_sink.hpp"
#include "runner/thread_pool.hpp"
#include "support/check.hpp"

namespace rise::bench {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

inline std::string fmt_f(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Runs a seed sweep through the campaign runner on all hardware threads.
/// Results are deterministic regardless of the core count (see
/// runner/campaign.hpp). When the RISE_BENCH_JSON_DIR environment variable
/// is set, the per-trial records land in
/// $RISE_BENCH_JSON_DIR/BENCH_<artifact_name>.json.
inline runner::CampaignResult campaign_sweep(const app::ExperimentSpec& base,
                                             std::size_t seeds,
                                             const std::string& artifact_name) {
  runner::CampaignPlan plan;
  plan.base = base;
  plan.num_seeds = seeds;
  runner::CampaignOptions options;
  options.jobs = runner::ThreadPool::hardware_threads();

  std::ofstream json_out;
  std::unique_ptr<runner::JsonResultSink> sink;
  if (const char* dir = std::getenv("RISE_BENCH_JSON_DIR")) {
    json_out.open(std::string(dir) + "/BENCH_" + artifact_name + ".json");
    if (json_out) {
      sink = std::make_unique<runner::JsonResultSink>(json_out, plan,
                                                      options.jobs);
    }
  }
  options.sink = sink.get();
  auto result = runner::run_campaign(plan, options);
  if (json_out.is_open()) json_out << "\n";
  return result;
}

/// What seed_sweep measured: trial and error counts, and the message and
/// time samples of the completed trials.
struct SeedSweep {
  std::size_t trials = 0;
  std::size_t errors = 0;
  SampleStats messages;
  SampleStats time_units;

  /// The "runs (fail/err)" cell; a completed trial never fails here.
  std::string runs() const {
    return fmt_u(trials) + " (0/" + fmt_u(errors) + ")";
  }
};

/// A serial seed sweep over a workload that no spec string describes (the
/// lower-bound families). Trial i runs with runner::trial_seed(base_seed, i),
/// the seed a campaign would give it; a trial that throws CheckError counts
/// as an error and adds no samples. Every completed trial is sampled, since
/// these harnesses leave nodes asleep by design.
template <typename RunTrial>
SeedSweep seed_sweep(std::uint64_t base_seed, std::size_t seeds,
                     RunTrial&& run_trial) {
  SeedSweep sweep;
  for (std::size_t i = 0; i < seeds; ++i) {
    ++sweep.trials;
    try {
      const sim::RunResult r = run_trial(runner::trial_seed(base_seed, i));
      sweep.messages.add(static_cast<double>(r.metrics.messages));
      sweep.time_units.add(r.metrics.time_units());
    } catch (const CheckError&) {
      ++sweep.errors;
    }
  }
  return sweep;
}

/// "mean ± sd" cell for distribution tables.
inline std::string fmt_mean_sd(const SampleStats& s, int precision = 1) {
  return fmt_f(s.mean(), precision) + " +- " + fmt_f(s.stddev(), precision);
}

/// "p50/p90/max" cell for distribution tables. Delegates every order
/// statistic to SampleStats (src/support/stats) — the repo's single
/// quantile implementation; bench code must not grow its own
/// (test_bench_util pins the delegation). "-" when the sample is empty,
/// since SampleStats::quantile throws on no data.
inline std::string fmt_quantiles(const SampleStats& s, int precision = 1) {
  if (s.count() == 0) return "-";
  return fmt_f(s.quantile(0.5), precision) + "/" +
         fmt_f(s.quantile(0.9), precision) + "/" + fmt_f(s.max(), precision);
}

}  // namespace rise::bench
