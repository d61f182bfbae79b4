// Search objectives: what the adversary driver (src/search/hunt.hpp)
// maximizes, read off an obs::RunProfile.
//
// Three objectives mirror the paper's cost measures:
//   messages — total message complexity (Theorems 1-3 trade this off);
//   time     — tau-normalized completion time, the awake-distance-relative
//              measure of Definition 2;
//   rho_awk  — measured awake complexity: the maximum per-node awake rounds
//              the run actually paid (sim::RunResult::awake_rounds, surfaced
//              as RunProfile::awake_max). This used to be the schedule's
//              awake-distance *proxy* rho_awk(G, A0); with first-class awake
//              accounting the hunt maximizes the true cost, which is what
//              the sleeping-model families (smis, smatching) are bounded on.
//
// envelope_bound() returns the matching bound of the paper-claims table
// (src/check/claims.hpp) so hunt reports can state champion-vs-bound ratios:
// an empirical worst case close to its envelope says the bound is tight in
// practice; a champion *above* it would be a conformance bug.
#pragma once

#include <cstdint>
#include <string>

#include "obs/profile.hpp"

namespace rise::search {

enum class Objective : std::uint8_t {
  kMessages,
  kTime,
  kRhoAwk,
};

/// "messages" | "time" | "rho_awk".
const char* objective_name(Objective objective);

/// Inverse of objective_name; CheckError on unknown names.
Objective parse_objective(const std::string& name);

/// The objective's value on a completed run. For kRhoAwk the profile must
/// carry awake attribution (a non-empty awake_rounds histogram whenever
/// num_nodes > 0) — profiles written before awake accounting landed, or
/// assembled by hand without it, fail fast with CheckError instead of
/// silently scoring 0 and poisoning the hunt.
double objective_value(Objective objective, const obs::RunProfile& profile);

/// The analytical worst-case envelope for this objective on this run's
/// algorithm and instance size, or 0 when no envelope is known: the first
/// bound of the algorithm family's claim (check::claim_for_family; ttl is
/// measured as flooding, the ranked_dfs variants and leader as ranked_dfs)
/// on the objective's quantity. messages reads the message bound; time the
/// completion-time bound, else the wake-up span bound (asynchronous) or the
/// round bound (synchronous); rho_awk the awake bound, else n - 1. A bound
/// in the diameter D gives 0, since the profile does not carry D. A
/// lower-bound claim (Claim::lower_bound: beta, nih) gives no envelope.
double envelope_bound(Objective objective, const obs::RunProfile& profile);

}  // namespace rise::search
