// Complexity-conformance suite: a data-driven table locking the measured
// per-run profiles (src/obs) to the paper's Table-1 envelopes, across three
// graph families x two sizes per algorithm.
//
// Everything here is asserted from the RunProfile an app::run_profiled call
// emits — not from raw Metrics — so the suite simultaneously pins (a) the
// complexity shape of each algorithm and (b) the profile's accounting
// invariants (phase sums partition the totals; counters match structural
// facts like "every initiator launches one token").
//
// Slack rationale, documented once here and referenced per row:
//   * flooding: EXACT — every woken node broadcasts once on every port, so
//     messages == sum of degrees == 2m, no slack at all (the paper's O(m)
//     with the constant pinned to 2).
//   * ranked_dfs: the paper's Theorem-2 analysis gives O(n log n) expected
//     messages under wake-all (each of the n tokens dies after an expected
//     O(log n) prefix of its DFS once higher ranks circulate). The constant
//     20 matches test_complexity_bounds.cpp's calibration on this repo's
//     generators: measured runs sit at 3-6 n ln n, so 20 n ln n is ~4x
//     headroom — loose enough to absorb seed variance, tight enough that a
//     quadratic regression (naive token flooding) trips it immediately.
//   * fast_wakeup: the paper's Õ(n^1.5) bound. 60 n^1.5 sqrt(ln n) is the
//     repo's calibrated envelope (same constant as test_complexity_bounds):
//     measured runs are ~10-25x below it, but an n^2 regression (skipping
//     the sampling stage) overshoots it from n = 144 up. Rounds stay O(1)
//     under a dominating-set wake-up: 10 activation rounds per wave plus
//     setup, bounded here by 30.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "obs/profile.hpp"

namespace rise {
namespace {

struct GraphFamily {
  std::string name;
  // Spec strings for the two sizes (n = 144 and n = 400; perfect squares so
  // grid and torus hit the target size exactly).
  std::string small;
  std::string large;
};

const std::vector<GraphFamily>& graph_families() {
  static const std::vector<GraphFamily> kFamilies = {
      // Sparse connected G(n, p) with expected degree 6.
      {"cgnp", "cgnp:144:0.0417", "cgnp:400:0.015"},
      {"grid", "grid:12x12", "grid:20x20"},
      {"torus", "torus:12x12", "torus:20x20"},
  };
  return kFamilies;
}

struct ConformanceRow {
  std::string algorithm;
  std::string schedule;
  /// Upper envelope on messages as a function of (n, m); see the slack
  /// rationale in the file comment.
  double (*message_bound)(double n, double m);
  /// When true the bound is an equality (flooding's exact 2m).
  bool exact;
  /// 0 = no round bound (asynchronous rows).
  std::uint64_t max_rounds;
  /// Counter that must equal the number of adversarially woken initiators
  /// ("" = none checked).
  std::string per_initiator_counter;
};

const std::vector<ConformanceRow>& conformance_table() {
  static const std::vector<ConformanceRow> kTable = {
      {"flooding", "single",
       [](double, double m) { return 2.0 * m; }, true, 0, ""},
      {"ranked_dfs", "all",
       [](double n, double) { return 20.0 * n * std::log(n); }, false, 0,
       "dfs.tokens_launched"},
      {"fast_wakeup", "dominating",
       [](double n, double) {
         return 60.0 * std::pow(n, 1.5) * std::sqrt(std::log(n));
       },
       false, 30, ""},
  };
  return kTable;
}

struct CasesParam {
  ConformanceRow row;
  GraphFamily family;
  bool large = false;
};

class Conformance : public ::testing::TestWithParam<CasesParam> {};

TEST_P(Conformance, ProfileStaysInsideThePaperEnvelope) {
  const CasesParam& param = GetParam();
  app::ExperimentSpec spec;
  spec.algorithm = param.row.algorithm;
  spec.graph = param.large ? param.family.large : param.family.small;
  spec.schedule = param.row.schedule;
  spec.seed = 7;
  const app::ProfiledReport run = app::run_profiled(spec);
  const obs::RunProfile& p = run.profile;
  ASSERT_TRUE(run.report.result.all_awake());

  // Accounting invariants: the profile's phase decomposition partitions the
  // Metrics totals exactly, and the profile mirrors the report's totals.
  EXPECT_EQ(p.messages, run.report.result.metrics.messages);
  EXPECT_EQ(p.phase_message_sum(), p.messages);
  EXPECT_EQ(p.phase_bit_sum(), p.bits);

  const double n = static_cast<double>(p.num_nodes);
  const double m = static_cast<double>(p.num_edges);
  const double bound = param.row.message_bound(n, m);
  if (param.row.exact) {
    EXPECT_EQ(static_cast<double>(p.messages), bound);
  } else {
    EXPECT_LT(static_cast<double>(p.messages), bound);
  }
  if (param.row.max_rounds > 0) {
    EXPECT_TRUE(p.synchronous);
    EXPECT_LE(p.rounds, param.row.max_rounds);
    EXPECT_EQ(p.engine.rounds_stepped, p.rounds);
  }
  if (!param.row.per_initiator_counter.empty()) {
    // wake-all: every node is an initiator and launches exactly one token.
    EXPECT_EQ(p.counter(param.row.per_initiator_counter), p.num_nodes);
  }
}

std::vector<CasesParam> all_cases() {
  std::vector<CasesParam> cases;
  for (const auto& row : conformance_table()) {
    for (const auto& family : graph_families()) {
      for (const bool large : {false, true}) {
        cases.push_back({row, family, large});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Table, Conformance, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<CasesParam>& param_info) {
      return param_info.param.row.algorithm + "_" +
             param_info.param.family.name +
             (param_info.param.large ? "_large" : "_small");
    });

// ---- sleeping-model awake-complexity conformance (PR 9) ------------------
//
// Ghaffari–Portmann sleeping MIS and matching decide in O(log n) awake
// rounds w.h.p.; contenders pay O(1) awake rounds per 3-round window and
// deciders pay O(1) nap check-ins. The calibrated envelope 16 log2 n + 32
// (the same formula search::envelope_bound reports, pinned equal in
// test_search_hunt.cpp) leaves several-fold headroom over measured runs on
// this grid while a linear regression — a node kept awake every round, as
// the pre-sleeping proxy would hide — overshoots it from n = 144 up.
// The JSON path of these profiles (awake fields, classes, round_active,
// timers) is pinned by ProfileJson.ParseIsAnExactInverseOfSerialize.

double awake_envelope(double n) { return 16.0 * std::log2(n) + 32.0; }

TEST(AwakeConformance, SleepingFamiliesStayInsideTheLogEnvelope) {
  for (const std::string algorithm : {"smis", "smatching"}) {
    for (const auto& family : graph_families()) {
      for (const bool large : {false, true}) {
        app::ExperimentSpec spec;
        spec.algorithm = algorithm;
        spec.graph = large ? family.large : family.small;
        spec.schedule = "single";
        spec.seed = 7;
        const app::ProfiledReport run = app::run_profiled(spec);
        const obs::RunProfile& p = run.profile;
        const std::string what =
            algorithm + " on " + spec.graph + " (single wake)";
        ASSERT_TRUE(run.report.result.all_awake()) << what;

        // The awake accounting is complete: one histogram entry per node,
        // totals consistent, and every send either delivered or dropped at
        // a declared-sleeping node.
        EXPECT_EQ(p.awake_rounds.count(), p.num_nodes) << what;
        EXPECT_EQ(p.awake_rounds.sum(), p.awake_total) << what;
        EXPECT_EQ(p.awake_rounds.max(), p.awake_max) << what;
        EXPECT_EQ(p.deliveries + p.sleep_dropped, p.messages) << what;
        EXPECT_GT(p.sleep_dropped, 0u) << what;

        // The awake-complexity envelope: max per-node awake rounds stays
        // O(log n) even under the adversarial single wake-up, where the
        // run itself lasts Omega(diameter) rounds.
        const double n = static_cast<double>(p.num_nodes);
        EXPECT_LT(static_cast<double>(p.awake_max), awake_envelope(n))
            << what << ": awake_max=" << p.awake_max << " over " << p.rounds
            << " rounds";
        // And the measure is meaningfully smaller than the run length on
        // the large diameter-stretched instances — awake complexity is a
        // different yardstick than round complexity.
        if (large) {
          EXPECT_LT(p.awake_max, p.rounds) << what;
        }
      }
    }
  }
}

TEST(Conformance, FloodingPhaseCarriesEveryMessage) {
  // The acceptance-spec scenario: flooding over the 32x32 grid emits a
  // profile whose single algorithm phase accounts for every message.
  app::ExperimentSpec spec;
  spec.algorithm = "flooding";
  spec.graph = "grid:32x32";
  const app::ProfiledReport run = app::run_profiled(spec);
  const obs::RunProfile& p = run.profile;
  const obs::PhaseProfile* flood = p.find_phase("flood");
  ASSERT_NE(flood, nullptr);
  EXPECT_EQ(flood->messages, p.messages);
  EXPECT_EQ(p.phases[0].messages, 0u);  // nothing lands unphased
  EXPECT_EQ(p.counter("flood.broadcasts"), p.num_nodes);
  EXPECT_EQ(p.messages, 2 * p.num_edges);
}

}  // namespace
}  // namespace rise
