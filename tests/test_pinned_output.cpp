// Byte pins of the observability and campaign output that users and tools
// read: the run_profile JSON of an asynchronous (bucket queue) and a
// synchronous run, its `rise_cli profile FILE` print, and the results-JSON
// summary block plus format_campaign text of a two-config campaign. The
// golden files under tests/golden/ hold the exact bytes; a refactor of the
// writers or readers must leave every one of them unchanged.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "app/spec.hpp"
#include "obs/profile.hpp"
#include "runner/campaign.hpp"
#include "runner/result_sink.hpp"
#include "support/json.hpp"

namespace rise {
namespace {

std::string golden(const std::string& name) {
  const std::string path = std::string(RISE_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A real profile with its wall-clock timer readings zeroed: everything else
/// in a profile is a pure function of the spec.
obs::RunProfile pinned_profile(const std::string& algorithm) {
  app::ExperimentSpec spec;
  spec.algorithm = algorithm;
  spec.graph = "grid:4x4";
  spec.seed = 7;
  obs::RunProfile p = app::run_profiled(spec).profile;
  for (obs::TimerProfile& t : p.timers) t.wall_seconds = 0.0;
  return p;
}

TEST(PinnedOutput, RunProfileJsonAndPrint) {
  for (const std::string algorithm : {"flooding", "fast_wakeup"}) {
    SCOPED_TRACE(algorithm);
    const obs::RunProfile p = pinned_profile(algorithm);
    EXPECT_EQ(p.engine.backend, algorithm == "flooding" ? "buckets" : "sync");
    const std::string text = obs::profile_to_json(p);
    EXPECT_EQ(text, golden("profile_" + algorithm + ".json"));
    EXPECT_EQ(obs::format_profile_document(json::parse(text)),
              golden("profile_" + algorithm + ".txt"));
  }
}

TEST(PinnedOutput, CampaignSummaryAndText) {
  runner::CampaignPlan plan;
  plan.base.graph = "path:16";
  plan.base.seed = 2026;
  plan.grid = {{"algo", {"flooding", "ranked_dfs"}}};
  plan.num_seeds = 3;

  std::ostringstream os;
  runner::SinkOptions options;
  options.provenance.hostname = "host";
  options.provenance.commit = "abc123";
  options.provenance.started_at = "2026-01-01T00:00:00Z";
  runner::JsonResultSink sink(os, plan, /*jobs=*/1, options);
  runner::CampaignOptions run;
  run.sink = &sink;
  runner::CampaignResult result = runner::run_campaign(plan, run);

  // The summary block only: trial records and "timing" carry wall clocks.
  const std::string doc = os.str();
  const std::size_t begin = doc.find("\n  \"summary\": ");
  const std::size_t end = doc.find(",\n  \"timing\": ");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(doc.substr(begin + 1, end - begin - 1) + "\n",
            golden("campaign_summary.json"));

  result.wall_ms = 0.0;
  result.trials_per_sec = 0.0;
  EXPECT_EQ(runner::format_campaign(result), golden("campaign_summary.txt"));
}

}  // namespace
}  // namespace rise
