// Complexity conformance: the tier-1 gate for the paper's claims.
//
// Every claim of src/check/claims.hpp runs each of its algorithms on each of
// its workloads (sized ones at every n of kSizes) through
// check::evaluate_claim, and every bound of the claim must hold. The same
// runs pin the RunProfile's accounting: phase sums partition the totals, and
// per-family counters match structural facts (every wake-all initiator
// launches one DFS token; a synchronous run steps every round; the sleeping
// families' awake histogram covers every node).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "check/claims.hpp"
#include "obs/profile.hpp"

namespace rise {
namespace {

/// 144 and 400 are perfect squares, so grid:RxR and torus:RxR hit n exactly.
const std::vector<std::uint32_t> kSizes = {64, 144, 256, 400, 512};

/// Profile identities every claim run must satisfy.
void expect_profile_accounting(const check::Claim& claim,
                               const app::ExperimentSpec& spec,
                               const app::ProfiledReport& run,
                               const std::string& what) {
  const obs::RunProfile& p = run.profile;
  EXPECT_EQ(p.messages, run.report.result.metrics.messages) << what;
  EXPECT_EQ(p.phase_message_sum(), p.messages) << what;
  EXPECT_EQ(p.phase_bit_sum(), p.bits) << what;
  if (claim.id == "thm3" && spec.schedule == "all") {
    // Wake-all: every node is an initiator and launches exactly one token.
    EXPECT_EQ(p.counter("dfs.tokens_launched"), p.num_nodes) << what;
  }
  if (claim.id == "thm4") {
    EXPECT_TRUE(p.synchronous) << what;
    EXPECT_EQ(p.engine.rounds_stepped, p.rounds) << what;
  }
  if (claim.id == "smis" || claim.id == "smatching") {
    // One histogram entry per node, totals consistent, and every send either
    // delivered or dropped at a declared-sleeping node.
    EXPECT_EQ(p.awake_rounds.count(), p.num_nodes) << what;
    EXPECT_EQ(p.awake_rounds.sum(), p.awake_total) << what;
    EXPECT_EQ(p.awake_rounds.max(), p.awake_max) << what;
    EXPECT_EQ(p.deliveries + p.sleep_dropped, p.messages) << what;
    EXPECT_GT(p.sleep_dropped, 0u) << what;
    // Under a single wake the run lasts Omega(diameter) rounds, and on the
    // larger instances awake complexity is a different yardstick than the
    // round count.
    if (spec.schedule == "single" && p.num_nodes >= 400) {
      EXPECT_LT(p.awake_max, p.rounds) << what;
    }
  }
}

class Claims : public ::testing::TestWithParam<std::string> {};

TEST_P(Claims, EveryWorkloadStaysInsideTheBounds) {
  const check::Claim& claim = check::find_claim(GetParam());
  for (const std::string& algorithm : claim.algorithms) {
    for (const check::Workload& w : claim.workloads) {
      for (const std::string& graph : check::workload_graphs(w.graph, kSizes)) {
        app::ExperimentSpec spec;
        spec.algorithm = algorithm;
        spec.graph = graph;
        spec.schedule = w.schedule;
        spec.seed = 7;
        const std::string what =
            claim.id + ": " + algorithm + " on " + graph + " / " + w.schedule;
        const check::ClaimRun run = check::evaluate_claim(claim, spec);
        ASSERT_TRUE(run.measurement.all_awake) << what;
        for (const check::BoundCheck& c : run.checks) {
          EXPECT_TRUE(c.passed)
              << what << ": " << check::quantity_name(c.bound->quantity)
              << " " << c.measured << " / (" << c.bound->expression
              << ") = " << c.ratio << ", not "
              << check::relation_symbol(c.bound->relation) << " "
              << c.bound->slack;
        }
        expect_profile_accounting(claim, spec, run.run, what);
      }
    }
  }
}

std::vector<std::string> claim_ids() {
  std::vector<std::string> out;
  for (const check::Claim& claim : check::claims()) out.push_back(claim.id);
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, Claims, ::testing::ValuesIn(claim_ids()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

TEST(ClaimTable, EveryGateCanFailAndEveryRowIsCovered) {
  // A measurement one unit past any upper bound's limit must fail that
  // bound, one unit under a lower bound's limit must fail it, and an exact
  // bound must fail on either side: a gate that cannot fail gates nothing.
  check::Measurement base;
  base.vars = {100.0, 300.0, 5.0, 7.0, 3.0};  // n, m, rho, D, k
  base.all_awake = true;
  for (const check::Claim& claim : check::claims()) {
    for (std::size_t i = 0; i < claim.bounds.size(); ++i) {
      const check::Bound& b = claim.bounds[i];
      const double limit = b.slack * b.value(base.vars);
      ASSERT_EQ(check::check_bounds(claim, base).size(), claim.bounds.size());
      check::Measurement past = base;
      if (b.relation != check::Relation::kGreaterEqual) {
        past.of(b.quantity) = std::floor(limit) + 1.0;
        EXPECT_FALSE(check::check_bounds(claim, past)[i].passed)
            << claim.id << " bound " << i << " (" << b.expression
            << ") passes one unit past its limit " << limit;
      }
      if (b.relation == check::Relation::kEqual ||
          b.relation == check::Relation::kGreaterEqual) {
        past.of(b.quantity) = std::ceil(limit) - 1.0;
        EXPECT_FALSE(check::check_bounds(claim, past)[i].passed)
            << claim.id << " bound " << i << " (" << b.expression
            << ") passes one unit under its limit " << limit;
      }
    }
  }

  // Every Table-1 row of DESIGN.md section 3 names the claim that gates it.
  std::ifstream design(RISE_DESIGN_MD);
  ASSERT_TRUE(design) << RISE_DESIGN_MD;
  std::string line;
  bool in_section = false;
  std::size_t rows = 0;
  while (std::getline(design, line)) {
    if (line.rfind("## ", 0) == 0) in_section = line.rfind("## 3.", 0) == 0;
    const bool table1_row =
        line.rfind("| T1.row", 0) == 0 || line.rfind("| Baseline", 0) == 0;
    if (!in_section || !table1_row) continue;
    ++rows;
    const std::size_t at = line.find("--rows ");
    ASSERT_NE(at, std::string::npos) << "no claim for: " << line;
    const std::size_t end = line.find('`', at);
    const std::string id = line.substr(at + 7, end - at - 7);
    EXPECT_NO_THROW(check::find_claim(id)) << line;
  }
  EXPECT_EQ(rows, 10u);  // Thm 3, Thm 4, Cor 1, Thm 5A, Thm 5B, Thm 6, Cor 2,
                         // Thm 1, Thm 2, flooding
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
