// Regression test for bench/bench_util.hpp's table-cell formatters — in
// particular fmt_quantiles, which must *delegate* its order statistics to
// SampleStats (src/support/stats), the repo's single quantile
// implementation, rather than growing a private copy. The test computes the
// expected cell from SampleStats directly, so any drift between the two
// (a re-implemented percentile, an off-by-one nearest-rank) fails here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "support/stats.hpp"

namespace rise {
namespace {

TEST(BenchUtil, FmtQuantilesDelegatesToSampleStats) {
  SampleStats s;
  // 1..10 under SampleStats's rank = round(p * (n-1)) convention:
  // p50 -> rank round(4.5) = 5 -> value 6; p90 -> rank round(8.1) = 8 ->
  // value 9. Sensitive to any rank-rounding drift.
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_EQ(bench::fmt_quantiles(s, 0), "6/9/10");

  const std::string expected = bench::fmt_f(s.quantile(0.5), 1) + "/" +
                               bench::fmt_f(s.quantile(0.9), 1) + "/" +
                               bench::fmt_f(s.max(), 1);
  EXPECT_EQ(bench::fmt_quantiles(s), expected);
}

TEST(BenchUtil, FmtQuantilesEmptySampleIsDashNotThrow) {
  // SampleStats::quantile throws on an empty sample; the formatter must
  // guard so an all-failed campaign still prints its table.
  EXPECT_EQ(bench::fmt_quantiles(SampleStats{}), "-");
}

TEST(BenchUtil, NumberFormattersAreStable) {
  EXPECT_EQ(bench::fmt_u(0), "0");
  EXPECT_EQ(bench::fmt_u(~std::uint64_t{0}), "18446744073709551615");
  EXPECT_EQ(bench::fmt_f(1.0 / 3.0, 2), "0.33");
  SampleStats s;
  s.add(2.0);
  s.add(4.0);
  EXPECT_EQ(bench::fmt_mean_sd(s, 1), "3.0 +- 1.4");
}

TEST(BenchUtil, CampaignSweepRejectsAnArtifactPathItCannotOpen) {
  // A regular file where the artifact directory should be: the artifact
  // cannot be created, and the sweep must say so instead of running without
  // writing it.
  const std::filesystem::path not_a_dir =
      std::filesystem::temp_directory_path() / "rise_bench_util_not_a_dir";
  std::ofstream(not_a_dir) << "x";
  ASSERT_EQ(setenv("RISE_BENCH_JSON_DIR", not_a_dir.c_str(), 1), 0);
  app::ExperimentSpec spec;
  spec.graph = "path:4";
  std::string message;
  try {
    bench::campaign_sweep(spec, 1, "unopenable");
  } catch (const CheckError& e) {
    message = e.what();
  }
  unsetenv("RISE_BENCH_JSON_DIR");
  std::filesystem::remove(not_a_dir);
  EXPECT_NE(message.find(not_a_dir.string() + "/BENCH_unopenable.json"),
            std::string::npos)
      << message;
}

}  // namespace
}  // namespace rise
