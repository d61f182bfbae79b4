// The paper's claims, declared once: each Table-1 row (and the sleeping
// families' awake bound) as a list of algorithm specs, the workloads it is
// measured on, and the bounds a run must satisfy. Three consumers read the
// list: the tier-1 gate (tests/test_complexity_conformance.cpp), the hunt's
// analytical envelopes (search::envelope_bound) and bench/bench_claims. The
// lower-bound rows (Theorems 1 and 2) are measured from the achievable side
// on their own family graphs, so they carry no envelope.
//
// A bound reads "quantity RELATION slack * expression", where the expression
// is a function of the instance (n, m, rho_awk, D, k). Evaluating it on a run
// yields ratio = measured / expression; the bound holds when
// ratio RELATION slack. The full version of the paper (arXiv 2410.09980)
// states the rows w.h.p.; the slack constants are calibrated on this repo's
// generators and sit several times above the measured ratios.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "store/result_store.hpp"

namespace rise::check {

enum class Quantity : std::uint8_t {
  kMessages,
  kTime,        ///< tau-normalized completion time
  kWakeupSpan,  ///< last wake minus first wake, in ticks (rounds when sync)
  kRounds,      ///< synchronous rounds until quiescence
  kAdviceMax,   ///< max advice bits per node
  kAdviceAvg,   ///< average advice bits per node
  kAwakeMax,    ///< max per-node awake rounds (sleeping model)
};
inline constexpr std::size_t kQuantityCount = 7;

/// "messages" | "time" | "wakeup_span" | "rounds" | "advice_max" |
/// "advice_avg" | "awake_max".
const char* quantity_name(Quantity quantity);

enum class Relation : std::uint8_t {
  kLess,
  kLessEqual,
  kEqual,
  kGreaterEqual,
};

/// "<" | "<=" | "==" | ">=".
const char* relation_symbol(Relation relation);

/// The instance variables a bound expression reads. `diameter` is filled
/// only for claims with a bound that uses it; `k` is the K of a spanner:K
/// algorithm or the advice budget B of beta:B (0 otherwise).
struct Vars {
  double n = 0;
  double m = 0;
  double rho = 0;
  double diameter = 0;
  double k = 0;
};

struct Bound {
  Quantity quantity = Quantity::kMessages;
  Relation relation = Relation::kLessEqual;
  double slack = 1.0;
  const char* expression = "";  ///< printed form, e.g. "n ln n"
  double (*value)(const Vars&) = nullptr;
  bool uses_diameter = false;
};

/// One measured configuration. In `graph`, a ':'- or 'x'-separated field
/// reading N, R, c/N or c/R is a size template (n, round(sqrt n), c/n,
/// c/round(sqrt n)); a graph without one is a fixed instance.
struct Workload {
  std::string graph;
  std::string schedule;
};

struct Claim {
  std::string id;       ///< "thm3", "cor1", ..., "flooding", "smis"
  std::string paper;    ///< "Theorem 3", "Corollary 1 [FIP06]", ...
  std::string model;    ///< "async KT1 LOCAL", ...
  std::string table1;   ///< the Table-1 bound text "time | msgs | advice"
  std::vector<std::string> algorithms;
  std::vector<Workload> workloads;
  /// The first bound on a quantity is the claim's envelope for any run of
  /// its algorithms (search::envelope_bound reads it); a later bound on the
  /// same quantity tightens it on the declared workloads.
  std::vector<Bound> bounds;
  /// A lower-bound row: its workloads are its own family graphs and its
  /// bounds hold there only, so it sits out bench_claims' shared summary
  /// workload and gives search::envelope_bound no envelope.
  bool lower_bound = false;

  bool uses_diameter() const;
};

/// Every claim, in Table-1 order.
const std::vector<Claim>& claims();

/// The claim named `id`; CheckError naming it (and the known ids) if none.
const Claim& find_claim(const std::string& id);

/// The claim one of whose algorithm specs has this family (the spec up to
/// its first ':'), or nullptr.
const Claim* claim_for_family(const std::string& family);

/// The K of a "spanner:K" or the B of a "beta:B" algorithm spec (0 for any
/// other algorithm).
double algorithm_k(const std::string& algorithm);

/// `graph` with its size template instantiated at n.
std::string size_graph(const std::string& graph, std::uint32_t n);

/// The graphs a workload runs on: `graph` at each of `sizes` when it carries
/// a size template, else `graph` once.
std::vector<std::string> workload_graphs(
    const std::string& graph, const std::vector<std::uint32_t>& sizes);

/// What one run measured, and the instance variables its bounds read.
struct Measurement {
  Vars vars;
  bool all_awake = false;
  std::array<double, kQuantityCount> values{};  ///< indexed by Quantity

  double& of(Quantity q) { return values[static_cast<std::size_t>(q)]; }
  double of(Quantity q) const { return values[static_cast<std::size_t>(q)]; }
};

/// The measurement of a finished run of `spec` (a campaign trial's outcome
/// plus the awake_max of its profile). D is computed, by rebuilding the
/// trial's graph, only when a bound of `claim` uses it.
Measurement measure(const Claim& claim, const app::ExperimentSpec& spec,
                    const store::TrialOutcome& outcome,
                    std::uint64_t awake_max);

struct BoundCheck {
  const Bound* bound = nullptr;
  double measured = 0.0;
  double ratio = 0.0;  ///< measured / expression (0 when both are 0)
  bool passed = false;
};

/// Checks every bound of `claim` on `m`.
std::vector<BoundCheck> check_bounds(const Claim& claim, const Measurement& m);

struct ClaimRun {
  app::ProfiledReport run;
  Measurement measurement;
  std::vector<BoundCheck> checks;
};

/// Runs `spec` through app::run_profiled and checks every bound of `claim`.
ClaimRun evaluate_claim(const Claim& claim, const app::ExperimentSpec& spec);

}  // namespace rise::check
