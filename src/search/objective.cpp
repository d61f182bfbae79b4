#include "search/objective.hpp"

#include <cmath>
#include <vector>

#include "check/claims.hpp"
#include "support/check.hpp"

namespace rise::search {

namespace {

/// The claim quantities whose first bound is the envelope of `objective`,
/// in preference order. Time is the wake-up span for asynchronous claims
/// that bound no completion time, and the round count for synchronous ones.
std::vector<check::Quantity> envelope_quantities(Objective objective,
                                                 bool synchronous) {
  switch (objective) {
    case Objective::kMessages:
      return {check::Quantity::kMessages};
    case Objective::kTime:
      if (synchronous) return {check::Quantity::kRounds};
      return {check::Quantity::kTime, check::Quantity::kWakeupSpan};
    case Objective::kRhoAwk:
    default:
      return {check::Quantity::kAwakeMax};
  }
}

}  // namespace

const char* objective_name(Objective objective) {
  switch (objective) {
    case Objective::kMessages:
      return "messages";
    case Objective::kTime:
      return "time";
    case Objective::kRhoAwk:
    default:
      return "rho_awk";
  }
}

Objective parse_objective(const std::string& name) {
  if (name == "messages") return Objective::kMessages;
  if (name == "time") return Objective::kTime;
  RISE_CHECK_MSG(name == "rho_awk",
                 "unknown objective '"
                     << name << "' (expected messages|time|rho_awk)");
  return Objective::kRhoAwk;
}

double objective_value(Objective objective, const obs::RunProfile& profile) {
  switch (objective) {
    case Objective::kMessages:
      return static_cast<double>(profile.messages);
    case Objective::kTime:
      return profile.time_units;
    case Objective::kRhoAwk:
    default:
      // Measured awake complexity, not the schedule's rho_awk proxy. A
      // profile with nodes but an empty awake_rounds histogram has no awake
      // attribution — scoring it 0 would make every such candidate look like
      // a non-event and silently poison the hunt, so refuse instead.
      RISE_CHECK_MSG(
          profile.num_nodes == 0 || profile.awake_rounds.count() > 0,
          "objective rho_awk requires awake attribution, but the profile for '"
              << profile.algorithm << "' (n=" << profile.num_nodes
              << ") carries an empty awake_rounds histogram — re-run with "
                 "awake accounting instead of scoring the proxy");
      return static_cast<double>(profile.awake_max);
  }
}

double envelope_bound(Objective objective, const obs::RunProfile& profile) {
  std::string family = profile.algorithm.substr(0, profile.algorithm.find(':'));
  // Variants measured against another family's claim.
  if (family == "ttl") family = "flooding";
  if (family.rfind("ranked_dfs", 0) == 0 || family == "leader") {
    family = "ranked_dfs";
  }
  const double n = static_cast<double>(profile.num_nodes);
  if (const check::Claim* claim = check::claim_for_family(family)) {
    check::Vars vars;
    vars.n = n;
    vars.m = static_cast<double>(profile.num_edges);
    vars.rho = profile.rho_awk;
    vars.k = check::spanner_k(profile.algorithm);
    for (const check::Quantity q :
         envelope_quantities(objective, profile.synchronous)) {
      for (const check::Bound& b : claim->bounds) {
        if (b.quantity != q) continue;
        // The profile carries no diameter.
        if (b.uses_diameter) return 0.0;
        const double bound = b.slack * b.value(vars);
        return std::isfinite(bound) ? bound : 0.0;
      }
    }
  }
  // A node is stepped at most once per round and every family quiesces
  // within n - 1 active rounds per node on the conformance grid.
  if (objective == Objective::kRhoAwk) return n >= 1 ? n - 1.0 : 0.0;
  return 0.0;
}

}  // namespace rise::search
