#include "check/claims.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "graph/algorithms.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace rise::check {

namespace {

double ln(double n) { return std::log(std::max(n, 1.0)); }
double lg(double n) { return std::log2(std::max(n, 1.0)); }

/// The ports beta:k probes per center on the KT0 family G with n/3 centers:
/// those whose top k bits match the advice, ceil((n/3 + 1) / 2^k).
double probes(const Vars& v) {
  return std::ceil((v.n / 3.0 + 1.0) / std::exp2(v.k));
}

/// The twelve small connected graphs the per-family tests sweep, as specs.
const std::vector<std::string>& catalog() {
  static const std::vector<std::string> kCatalog = {
      "path:40",     "cycle:41",     "star:50",        "complete:24",
      "grid:8x9",    "torus:6x7",    "hypercube:6",    "tree:60",
      "cgnp:70:0.08", "regular:48:5", "lollipop:12:20", "barbell:10:6"};
  return kCatalog;
}

/// The catalog under each of `schedules`.
std::vector<Workload> on_catalog(std::initializer_list<const char*> schedules) {
  std::vector<Workload> out;
  for (const char* schedule : schedules) {
    for (const std::string& graph : catalog()) out.push_back({graph, schedule});
  }
  return out;
}

std::vector<Workload> join(std::vector<Workload> a,
                           const std::vector<Workload>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Each slack constant is written here once. Where a quantity was printed
// but never gated before this table, the comment names the largest ratio
// bench_claims measured over n = 64..2000 (4 seeds a cell) and the slack is
// at least twice that.
std::vector<Claim> build_claims() {
  using Q = Quantity;
  using R = Relation;
  std::vector<Claim> out;

  out.push_back(
      {"thm3",
       "Theorem 3",
       "async KT1 LOCAL",
       "O(n log n) | O(n log n) | -",
       {"ranked_dfs"},
       {{"cgnp:N:6/N", "all"},
        {"cgnp:N:8/N", "staggered:25:2"},
        {"cgnp:N:8/N", "single"},
        {"cgnp:N:8/N", "random:0.3"},
        {"grid:RxR", "all"},
        {"torus:RxR", "all"},
        {"cgnp:150:0.08", "all"},
        {"cgnp:400:0.3", "all"},
        // Theorem 2's G_3 with the centers awake: the unrestricted-time side
        // of the thm2 trade-off, Theta(n) time for O(n log n) messages.
        {"kt1family:3:7", "centers"}},
       {// Under any schedule and delay policy: the envelope the hunt reports.
        {Q::kMessages, R::kLess, 20.0, "n ln n",
         [](const Vars& v) { return v.n * ln(v.n); }},
        // On the declared (unit-delay) workloads; measured max 1.25.
        {Q::kMessages, R::kLess, 16.0, "n ln n",
         [](const Vars& v) { return v.n * ln(v.n); }},
        // Newly gated; measured max 0.94.
        {Q::kTime, R::kLess, 2.0, "n ln n",
         [](const Vars& v) { return v.n * ln(v.n); }}}});

  out.push_back(
      {"thm4",
       "Theorem 4",
       "sync KT1 LOCAL",
       "10 rho_awk rounds | O(n^1.5 sqrt(log n)) | -",
       {"fast_wakeup"},
       join({{"cgnp:N:8/N", "dominating"},
             {"cgnp:N:1/R", "dominating"},
             {"grid:RxR", "dominating"},
             {"torus:RxR", "dominating"},
             {"cgnp:100:0.08", "dominating"},
             {"cgnp:144:0.2", "dominating"},
             {"torus:50x50", "single"},
             {"torus:50x50", "set:0,1275"},
             {"torus:50x50", "random:0.01"}},
            on_catalog({"single"})),
       {// Measured max 1.64 (star:50, single wake).
        {Q::kMessages, R::kLess, 40.0, "n^1.5 sqrt(ln n)",
         [](const Vars& v) { return std::pow(v.n, 1.5) * std::sqrt(ln(v.n)); }},
        // The paper's guarantee, exactly.
        {Q::kWakeupSpan, R::kLessEqual, 10.0, "rho",
         [](const Vars& v) { return v.rho; }},
        // Quiescence; measured max 21 rounds at rho = 1.
        {Q::kRounds, R::kLessEqual, 30.0, "rho",
         [](const Vars& v) { return v.rho; }}}});

  out.push_back(
      {"cor1",
       "Corollary 1 [FIP06]",
       "async KT0 CONGEST + advice",
       "O(D) | O(n) | O(n) max, O(log n) avg",
       {"fip06"},
       join({{"cgnp:N:6/N", "all"},
             {"cgnp:N:6/N", "random:0.2"},
             {"grid:RxR", "random:0.2"},
             {"star:N", "random:0.2"},
             {"tree:N", "random:0.2"},
             {"cgnp:200:0.3", "random:0.2"},
             {"cgnp:600:0.2", "random:0.2"},
             {"star:128", "single"}},
            on_catalog({"random:0.5", "single"})),
       {// Two messages per tree edge.
        {Q::kMessages, R::kLessEqual, 2.0, "n - 1",
         [](const Vars& v) { return std::max(v.n - 1.0, 0.0); }},
        // Up and down a BFS tree of depth <= D, one tick to spare.
        {Q::kWakeupSpan, R::kLessEqual, 1.0, "2D + 1",
         [](const Vars& v) { return 2.0 * v.diameter + 1.0; },
         true},
        // The bitmap caps the hub of a star at deg + 1 bits.
        {Q::kAdviceMax, R::kLessEqual, 1.0, "n",
         [](const Vars& v) { return v.n; }},
        {Q::kAdviceAvg, R::kLess, 8.0, "log2 n",
         [](const Vars& v) { return lg(v.n); }}}});

  out.push_back(
      {"thm5a",
       "Theorem 5(A) sqrt-threshold",
       "async KT0 CONGEST + advice",
       "O(D) | O(n^1.5) | O(sqrt(n) log n)",
       {"sqrt"},
       join({{"cgnp:N:8/N", "random:0.15"},
             {"cgnp:N:20/N", "single"},
             {"grid:RxR", "random:0.15"},
             {"star:N", "random:0.15"},
             {"cgnp:500:0.25", "random:0.15"}},
            on_catalog({"random:0.5", "single"})),
       {{Q::kMessages, R::kLessEqual, 3.0, "n^1.5 + 2n/3",
         [](const Vars& v) { return std::pow(v.n, 1.5) + 2.0 * v.n / 3.0; }},
        {Q::kWakeupSpan, R::kLessEqual, 1.0, "2D + 1",
         [](const Vars& v) { return 2.0 * v.diameter + 1.0; },
         true},
        {Q::kAdviceMax, R::kLess, 3.0, "sqrt(n) log2 n",
         [](const Vars& v) { return std::sqrt(v.n) * lg(v.n); }},
        {Q::kAdviceAvg, R::kLess, 4.0, "log2 n",
         [](const Vars& v) { return lg(v.n); }}}});

  out.push_back(
      {"thm5b",
       "Theorem 5(B) child-encoding",
       "async KT0 CONGEST + advice",
       "O(D log n) | O(n) | O(log n)",
       {"cen"},
       join({{"star:N", "single"},
             {"cgnp:N:6/N", "single"},
             {"cgnp:N:8/N", "random:0.15"},
             {"grid:RxR", "random:0.15"},
             {"cgnp:500:0.25", "random:0.15"}},
            on_catalog({"random:0.4", "single"})),
       {// At most three messages per node.
        {Q::kMessages, R::kLessEqual, 3.0, "n",
         [](const Vars& v) { return v.n; }},
        // 2 (D + 1) hops of 2 log2 n + 2 ticks each through sibling heaps.
        {Q::kWakeupSpan, R::kLessEqual, 4.0, "(D + 1)(log2 n + 1)",
         [](const Vars& v) { return (v.diameter + 1.0) * (lg(v.n) + 1.0); },
         true},
        {Q::kAdviceMax, R::kLess, 8.0, "log2 n + 1",
         [](const Vars& v) { return lg(v.n) + 1.0; }}}});

  out.push_back(
      {"thm6",
       "Theorem 6 spanner",
       "async KT0 CONGEST + advice",
       "O(k rho log n) | O(k n^{1+1/k}) | O(n^{1/k} log^2 n)",
       {"spanner:2", "spanner:3", "spanner:4"},
       {{"cgnp:N:10/N", "random:0.05"},
        {"cgnp:100:0.1", "single"},
        {"cgnp:600:0.15", "single"}},
       {// Stretch 2k - 1 per hop, 2 log2 n + 4 ticks per sibling heap.
        {Q::kWakeupSpan, R::kLessEqual, 2.0, "(2k - 1)(rho + 1)(log2 n + 2)",
         [](const Vars& v) {
           return (2.0 * v.k - 1.0) * (v.rho + 1.0) * (lg(v.n) + 2.0);
         }},
        // Newly gated; measured max 0.59.
        {Q::kMessages, R::kLessEqual, 1.25, "k n^{1+1/k}",
         [](const Vars& v) { return v.k * std::pow(v.n, 1.0 + 1.0 / v.k); }},
        // Newly gated; measured max 3.21.
        {Q::kAdviceMax, R::kLessEqual, 7.0, "n^{1/k} log2^2 n",
         [](const Vars& v) {
           return std::pow(v.n, 1.0 / v.k) * lg(v.n) * lg(v.n);
         }}}});

  out.push_back(
      {"cor2",
       "Corollary 2 spanner k = log n",
       "async KT0 CONGEST + advice",
       "O(rho log^2 n) | O(n log^2 n) | O(log^2 n)",
       {"cor2"},
       {{"cgnp:N:8/N", "random:0.2"},
        {"cgnp:N:10/N", "random:0.05"},
        {"cgnp:256:0.12", "all"},
        {"cgnp:600:0.15", "single"}},
       {{Q::kMessages, R::kLessEqual, 20.0, "n log2 n",
         [](const Vars& v) { return v.n * lg(v.n); }},
        {Q::kAdviceMax, R::kLessEqual, 30.0, "log2^2 n",
         [](const Vars& v) { return lg(v.n) * lg(v.n); }},
        // Newly gated; measured max 0.24.
        {Q::kWakeupSpan, R::kLessEqual, 0.5, "(rho + 1) log2^2 n",
         [](const Vars& v) { return (v.rho + 1.0) * lg(v.n) * lg(v.n); }}}});

  // The lower-bound rows, from the achievable side, on their own family
  // graphs (n = 3 n_g nodes, the n_g centers awake at time 0) with every
  // center's NIH answer checked by the run itself (app::execute_prepared).
  // Theorem 1: beta:k probes p = ceil((n_g + 1) / 2^k) ports per center,
  // which sits between the theorem's curve and twice the probe count.
  out.push_back(
      {"thm1",
       "Theorem 1",
       "async KT0 CONGEST + advice",
       "- | Omega(n^2/2^{beta+4} log n) | O(beta)",
       {"beta:0", "beta:2", "beta:4", "beta:6"},
       {{"kt0family:48", "centers"},
        {"kt0family:128", "centers"},
        {"kt0family:256", "centers"}},
       {// A probe and its answer per probed port, plus the broadcast to U.
        {Q::kMessages, R::kLessEqual, 1.0,
         "2 n_g ceil((n_g + 1)/2^k) + 2 n_g + 2",
         [](const Vars& v) {
           return 2.0 * (v.n / 3.0) * probes(v) + 2.0 * (v.n / 3.0) + 2.0;
         }},
        {Q::kMessages, R::kGreaterEqual, 0.5, "n_g ceil((n_g + 1)/2^k)",
         [](const Vars& v) { return v.n / 3.0 * probes(v); }},
        // The theorem's curve.
        {Q::kMessages, R::kGreaterEqual, 1.0, "n_g^2 / (2^{k+4} log2 n_g)",
         [](const Vars& v) {
           const double n_g = v.n / 3.0;
           return n_g * n_g / (std::exp2(v.k + 4.0) * lg(n_g));
         }},
        // k prefix bits plus the broadcaster flag.
        {Q::kAdviceMax, R::kLessEqual, 1.0, "k + 1",
         [](const Vars& v) { return v.k + 1.0; }},
        // Probe, then answer.
        {Q::kTime, R::kLessEqual, 2.0, "1", [](const Vars&) { return 1.0; }}},
       true});

  // Theorem 2: on G_k the 1-time-unit broadcast of the centers sends one
  // message per edge (every edge has a center end), and Lemma 1 adds one
  // answer per W node.
  out.push_back(
      {"thm2",
       "Theorem 2",
       "async KT1 LOCAL",
       "k+1 | Omega(n^{1+1/k}) | -",
       {"nih:ttl:1"},
       {{"kt1family:3:3", "centers"},
        {"kt1family:3:5", "centers"},
        {"kt1family:3:7", "centers"},
        {"kt1family:3:11", "centers"},
        {"kt1family:5:2", "centers"},
        {"kt1family:5:3", "centers"}},
       {{Q::kMessages, R::kEqual, 1.0, "m + n/3",
         [](const Vars& v) { return v.m + v.n / 3.0; }},
        {Q::kTime, R::kLessEqual, 2.0, "1", [](const Vars&) { return 1.0; }}},
       true});

  out.push_back(
      {"flooding",
       "baseline flooding",
       "async KT0 CONGEST",
       "rho_awk | Theta(m) | -",
       {"flooding"},
       join({{"cgnp:N:6/N", "single"},
             {"cgnp:N:8/N", "single"},
             {"grid:RxR", "single"},
             {"torus:RxR", "single"},
             {"regular:N:6", "single"},
             {"tree:N", "single"},
             {"grid:10x10", "set:0,99"},
             {"hypercube:10", "single"},
             {"lollipop:100:400", "single"}},
            on_catalog({"single"})),
       {// Every woken node broadcasts once on every port: exactly 2m.
        {Q::kMessages, R::kEqual, 2.0, "m",
         [](const Vars& v) { return v.m; }},
        // Everyone is awake after exactly rho_awk unit delays; the last
        // broadcasts land one unit later, so completion time is rho_awk + 1.
        {Q::kWakeupSpan, R::kEqual, 1.0, "rho",
         [](const Vars& v) { return v.rho; }}}});

  // Ghaffari–Portmann sleeping MIS and matching: O(log n) awake rounds.
  const std::vector<Workload> sleeping = {{"cgnp:N:6/N", "single"},
                                          {"grid:RxR", "single"},
                                          {"torus:RxR", "single"},
                                          {"cgnp:N:8/N", "all"}};
  const Bound awake = {Q::kAwakeMax, R::kLess, 16.0, "log2 n + 2",
                       [](const Vars& v) { return lg(v.n) + 2.0; }};
  out.push_back({"smis", "Ghaffari-Portmann sleeping MIS", "sync KT0 CONGEST",
                 "O(log n) awake rounds", {"smis"}, sleeping, {awake}});
  out.push_back({"smatching", "Ghaffari-Portmann sleeping matching",
                 "sync KT0 CONGEST", "O(log n) awake rounds", {"smatching"},
                 sleeping, {awake}});
  return out;
}

std::string family_of(const std::string& algorithm) {
  return algorithm.substr(0, algorithm.find(':'));
}

/// A size-template field ("N", "R", "c/N", "c/R") instantiated at n; any
/// other field unchanged.
std::string instantiate(const std::string& field, std::uint32_t n) {
  const auto slash = field.find('/');
  const std::string var =
      slash == std::string::npos ? field : field.substr(slash + 1);
  if (var != "N" && var != "R") return field;
  const double value =
      var == "N" ? n : std::round(std::sqrt(static_cast<double>(n)));
  if (slash == std::string::npos) {
    return std::to_string(static_cast<std::uint64_t>(value));
  }
  const std::string numerator = field.substr(0, slash);
  char* end = nullptr;
  const double c = std::strtod(numerator.c_str(), &end);
  if (numerator.empty() || *end != '\0') return field;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", c / value);
  return buf;
}

/// `text` with f applied to each `sep`-separated field.
template <typename F>
std::string map_fields(const std::string& text, char sep, F&& f) {
  std::string out;
  const auto fields = split(text, sep);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += sep;
    out += f(fields[i]);
  }
  return out;
}

}  // namespace

const char* quantity_name(Quantity quantity) {
  static constexpr const char* kNames[kQuantityCount] = {
      "messages",   "time",       "wakeup_span", "rounds",
      "advice_max", "advice_avg", "awake_max"};
  return kNames[static_cast<std::size_t>(quantity)];
}

const char* relation_symbol(Relation relation) {
  static constexpr const char* kSymbols[] = {"<", "<=", "==", ">="};
  return kSymbols[static_cast<std::size_t>(relation)];
}

double algorithm_k(const std::string& algorithm) {
  const auto f = split(algorithm, ':');
  std::uint64_t k = 0;
  if (f.size() == 2 && (f[0] == "spanner" || f[0] == "beta") &&
      parse_digits(f[1], k)) {
    return static_cast<double>(k);
  }
  return 0.0;
}

bool Claim::uses_diameter() const {
  return std::any_of(bounds.begin(), bounds.end(),
                     [](const Bound& b) { return b.uses_diameter; });
}

const std::vector<Claim>& claims() {
  static const std::vector<Claim> kClaims = build_claims();
  return kClaims;
}

const Claim& find_claim(const std::string& id) {
  std::string known;
  for (const Claim& claim : claims()) {
    if (claim.id == id) return claim;
    known += (known.empty() ? "" : ",") + claim.id;
  }
  RISE_CHECK_MSG(false, "unknown claim '" << id << "' (known: " << known
                                          << ")");
  return claims().front();
}

const Claim* claim_for_family(const std::string& family) {
  for (const Claim& claim : claims()) {
    for (const std::string& algorithm : claim.algorithms) {
      if (family_of(algorithm) == family) return &claim;
    }
  }
  return nullptr;
}

std::string size_graph(const std::string& graph, std::uint32_t n) {
  return map_fields(graph, ':', [n](const std::string& field) {
    return map_fields(field, 'x', [n](const std::string& part) {
      return instantiate(part, n);
    });
  });
}

std::vector<std::string> workload_graphs(
    const std::string& graph, const std::vector<std::uint32_t>& sizes) {
  // A template field always changes when instantiated.
  if (size_graph(graph, 4) == graph) return {graph};
  std::vector<std::string> out;
  for (const std::uint32_t n : sizes) out.push_back(size_graph(graph, n));
  return out;
}

Measurement measure(const Claim& claim, const app::ExperimentSpec& spec,
                    const store::TrialOutcome& outcome,
                    std::uint64_t awake_max) {
  Measurement m;
  m.vars.n = outcome.num_nodes;
  m.vars.m = static_cast<double>(outcome.num_edges);
  m.vars.rho = outcome.rho_awk;
  m.vars.k = algorithm_k(spec.algorithm);
  if (claim.uses_diameter()) {
    const app::PreparedExperiment prepared = app::prepare_experiment(spec);
    m.vars.diameter = graph::diameter(prepared.instance->graph());
  }
  m.all_awake = outcome.ok && outcome.all_awake;
  m.of(Quantity::kMessages) = static_cast<double>(outcome.messages);
  m.of(Quantity::kTime) = outcome.time_units;
  m.of(Quantity::kWakeupSpan) = static_cast<double>(outcome.wakeup_span);
  m.of(Quantity::kRounds) = static_cast<double>(outcome.rounds);
  m.of(Quantity::kAdviceMax) = static_cast<double>(outcome.advice_max_bits);
  m.of(Quantity::kAdviceAvg) = outcome.advice_avg_bits;
  m.of(Quantity::kAwakeMax) = static_cast<double>(awake_max);
  return m;
}

std::vector<BoundCheck> check_bounds(const Claim& claim, const Measurement& m) {
  std::vector<BoundCheck> out;
  for (const Bound& bound : claim.bounds) {
    BoundCheck c;
    c.bound = &bound;
    c.measured = m.of(bound.quantity);
    const double expression = bound.value(m.vars);
    c.ratio = c.measured == 0.0 ? 0.0 : c.measured / expression;
    // Compare against slack * expression, not the ratio, so an exact bound
    // (flooding's 2m) holds without rounding slop.
    const double limit = bound.slack * expression;
    switch (bound.relation) {
      case Relation::kLess:
        c.passed = c.measured < limit;
        break;
      case Relation::kLessEqual:
        c.passed = c.measured <= limit;
        break;
      case Relation::kEqual:
        c.passed = c.measured == limit;
        break;
      case Relation::kGreaterEqual:
        c.passed = c.measured >= limit;
        break;
    }
    out.push_back(c);
  }
  return out;
}

ClaimRun evaluate_claim(const Claim& claim, const app::ExperimentSpec& spec) {
  ClaimRun out;
  out.run = app::run_profiled(spec);
  out.measurement = measure(claim, spec, store::outcome_of(out.run.report),
                            out.run.profile.awake_max);
  out.checks = check_bounds(claim, out.measurement);
  return out;
}

}  // namespace rise::check
