// Shared helpers for the experiment harnesses in bench/: fixed-width table
// printing in the style of the paper's Table 1, ratio columns that make the
// asymptotic *shape* of a measurement visible (a flat ratio column means the
// measurement tracks the predicted bound), and a campaign-runner front end
// so every seed sweep runs on all cores and can dump machine-readable
// BENCH_*.json artifacts.
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
/// runner/campaign.hpp). Every trial carries its RunProfile.
/// When the RISE_BENCH_JSON_DIR environment variable is set, the per-trial
/// records land in $RISE_BENCH_JSON_DIR/BENCH_<artifact_name>.json; a path
/// that cannot be opened is a CheckError naming it.
inline runner::CampaignResult campaign_sweep(const app::ExperimentSpec& base,
                                             std::size_t seeds,
                                             const std::string& artifact_name) {
  runner::CampaignPlan plan;
  plan.base = base;
  plan.num_seeds = seeds;
  plan.profile = true;
  runner::CampaignOptions options;
  options.jobs = runner::ThreadPool::hardware_threads();

  std::ofstream json_out;
  std::unique_ptr<runner::JsonResultSink> sink;
  if (const char* dir = std::getenv("RISE_BENCH_JSON_DIR")) {
    const std::string path =
        std::string(dir) + "/BENCH_" + artifact_name + ".json";
    json_out.open(path);
    RISE_CHECK_MSG(json_out.is_open(),
                   "cannot open bench artifact '" << path << "' for writing");
    sink = std::make_unique<runner::JsonResultSink>(json_out, plan,
                                                    options.jobs);
  }
  options.sink = sink.get();
  auto result = runner::run_campaign(plan, options);
  if (json_out.is_open()) json_out << "\n";
  return result;
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
