#include "check/scenario.hpp"

#include <algorithm>
#include <sstream>

#include "check/invariants.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rise::check {

namespace {

/// Formats a double compactly for a spec string ("1.7", "0.25").
std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string fmt(std::uint64_t v) { return std::to_string(v); }

/// Uniform in [lo, hi] inclusive. An inverted range (hi < lo, possible when
/// a caller derives hi from a small max_nodes) collapses to lo instead of
/// wrapping `hi - lo + 1` around to a huge bound and sampling absurd sizes.
std::uint64_t pick(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  if (hi <= lo) return lo;
  return lo + rng.uniform(hi - lo + 1);
}

std::string sample_graph(Rng& rng, sim::NodeId max_nodes,
                         bool require_connected) {
  const std::uint64_t n_max = std::max<std::uint64_t>(8, max_nodes);
  std::uint64_t family = rng.uniform(13);
  // The configuration model is the one family that may come out
  // disconnected (e.g. regular:N:2 is a union of cycles); the tree-based
  // advising schemes require connectivity, so redirect them to the
  // always-connected G(n,p) variant.
  if (require_connected && family == 9) family = 8;
  switch (family) {
    case 0:
      return "path:" + fmt(pick(rng, 4, n_max));
    case 1:
      return "cycle:" + fmt(pick(rng, 3, n_max));
    case 2:
      return "star:" + fmt(pick(rng, 4, n_max));
    case 3:
      return "complete:" + fmt(pick(rng, 4, std::min<std::uint64_t>(20, n_max)));
    case 4: {
      const std::uint64_t r = pick(rng, 2, 8);
      return "grid:" + fmt(r) + "x" + fmt(pick(rng, 2, std::max<std::uint64_t>(2, n_max / r)));
    }
    case 5: {
      const std::uint64_t r = pick(rng, 3, 6);
      return "torus:" + fmt(r) + "x" + fmt(pick(rng, 3, std::max<std::uint64_t>(3, n_max / r)));
    }
    case 6: {
      std::uint64_t dim = 2;
      while ((std::uint64_t{1} << (dim + 1)) <= n_max && dim < 6) ++dim;
      return "hypercube:" + fmt(pick(rng, 2, dim));
    }
    case 7:
      return "tree:" + fmt(pick(rng, 4, n_max));
    case 8:
      return "cgnp:" + fmt(pick(rng, 8, n_max)) + ":" +
             fmt(0.03 + 0.25 * rng.uniform_real());
    case 9: {
      // Configuration model needs n*d even and d < n. The parity fix steps
      // n *down* so the sampled size never exceeds max_nodes (an odd product
      // means n and d are both odd, so n-1 >= d+1 > d keeps it valid).
      const std::uint64_t d = pick(rng, 2, 5);
      std::uint64_t n = pick(rng, d + 2, n_max);
      if (n * d % 2 != 0) --n;
      return "regular:" + fmt(n) + ":" + fmt(d);
    }
    case 10:
      return "lollipop:" + fmt(pick(rng, 3, n_max / 2)) + ":" +
             fmt(pick(rng, 2, n_max / 2));
    case 11: {
      const std::uint64_t clique = pick(rng, 3, (n_max - 2) / 2);
      return "barbell:" + fmt(clique) + ":" +
             fmt(pick(rng, 1, std::max<std::uint64_t>(1, n_max - 2 * clique)));
    }
    default:
      return "pendant:" + fmt(pick(rng, 4, std::min<std::uint64_t>(24, n_max)));
  }
}

std::string sample_delay(Rng& rng, sim::Time max_tau) {
  const sim::Time tau = pick(rng, 1, std::max<sim::Time>(1, max_tau));
  switch (rng.uniform(5)) {
    case 0:
      return "unit";
    case 1:
      return "fixed:" + fmt(tau);
    case 2:
      return "random:" + fmt(tau);
    case 3:
      return "slow:" + fmt(std::max<sim::Time>(2, tau)) + ":" + fmt(pick(rng, 2, 6));
    default:
      return "congestion:" + fmt(tau);
  }
}

std::string sample_algorithm(Rng& rng, const std::string& family) {
  if (family == "flooding") {
    return rng.chance(0.7) ? "flooding" : "ttl:" + fmt(pick(rng, 2, 10));
  }
  if (family == "ranked_dfs") {
    switch (rng.uniform(4)) {
      case 0:
        return "ranked_dfs";
      case 1:
        return "ranked_dfs_nodiscard";
      case 2:
        return "ranked_dfs_congest";
      default:
        return "leader";
    }
  }
  if (family == "fast_wakeup") return "fast_wakeup";
  if (family == "gossip") return "gossip:" + fmt(pick(rng, 8, 48));
  if (family == "sleeping") return rng.chance(0.5) ? "smis" : "smatching";
  RISE_CHECK_MSG(family == "advice", "unknown scenario family " << family);
  switch (rng.uniform(6)) {
    case 0:
      return "fip06";
    case 1:
      return "sqrt";
    case 2:
      return "cen";
    case 3:
      return "cen_chain";
    case 4:
      return "spanner:" + fmt(pick(rng, 2, 4));
    default:
      return "cor2";
  }
}

/// Roughly a third of all messages take 2*tau while the scenario declares
/// tau. The engine's own range check passes (we report the doubled bound to
/// it); the invariant checker, which trusts the scenario's tau, must flag
/// it. Keyed on (channel, per-channel index) because msg_index counts per
/// directed channel — a pure msg_index rule would miss single-message
/// channels entirely.
class LateDeliveryFault final : public sim::DelayPolicy {
 public:
  explicit LateDeliveryFault(const sim::DelayPolicy& inner) : inner_(inner) {}

  sim::Time max_delay() const override { return 2 * inner_.max_delay(); }
  sim::Time delay(sim::NodeId from, sim::NodeId to, std::uint64_t msg_index,
                  sim::Time send_time) const override {
    if ((static_cast<std::uint64_t>(from) + to + msg_index) % 3 == 0) {
      return 2 * inner_.max_delay();
    }
    return inner_.delay(from, to, msg_index, send_time);
  }

 private:
  const sim::DelayPolicy& inner_;
};

}  // namespace

std::string sample_schedule(Rng& rng, sim::Time max_tau) {
  switch (rng.uniform(6)) {
    case 0:
      return "single";
    case 1:
      return "all";
    case 2:
      return "random:" + fmt(0.05 + 0.75 * rng.uniform_real());
    case 3:
      return "staggered:" + fmt(pick(rng, 1, 2 * max_tau)) + ":" +
             fmt(1.2 + 1.8 * rng.uniform_real());
    case 4:
      return "dominating";
    default:
      // A small explicit set; node 0 always exists, extra ids stay within
      // the smallest graph the generator emits.
      return rng.chance(0.5) ? "set:0,1,2" : "set:0,2";
  }
}

const std::vector<std::string>& scenario_families() {
  static const std::vector<std::string> kFamilies = {
      "flooding", "ranked_dfs", "fast_wakeup", "gossip", "sleeping", "advice"};
  return kFamilies;
}

std::string family_for_algorithm(const std::string& algorithm) {
  const std::string name = algorithm.substr(0, algorithm.find(':'));
  if (name == "flooding" || name == "ttl") return "flooding";
  if (name == "ranked_dfs" || name == "ranked_dfs_nodiscard" ||
      name == "ranked_dfs_congest" || name == "leader") {
    return "ranked_dfs";
  }
  if (name == "fast_wakeup") return "fast_wakeup";
  if (name == "gossip") return "gossip";
  if (name == "smis" || name == "smatching") return "sleeping";
  if (name == "fip06" || name == "sqrt" || name == "cen" ||
      name == "cen_chain" || name == "spanner" || name == "cor2") {
    return "advice";
  }
  return "";
}

Scenario sample_scenario(std::uint64_t campaign_seed, std::uint64_t index,
                         const GeneratorOptions& options) {
  RISE_CHECK(options.max_nodes >= 8);
  RISE_CHECK(options.max_tau >= 1);
  const std::vector<std::string>& families =
      options.families.empty() ? scenario_families() : options.families;
  for (const auto& f : families) {
    RISE_CHECK_MSG(std::find(scenario_families().begin(),
                             scenario_families().end(),
                             f) != scenario_families().end(),
                   "unknown scenario family '" << f << "'");
  }

  // Independent SplitMix64-derived stream per (campaign, trial): the same
  // discipline as runner::trial_seed, with a distinct tag so fuzz streams
  // never alias campaign streams.
  std::uint64_t state = mix_seed(campaign_seed, 0xF0220000ULL + index);
  Rng rng(splitmix64(state));

  Scenario s;
  s.family = families[rng.uniform(families.size())];
  s.spec.graph =
      sample_graph(rng, options.max_nodes, /*require_connected=*/s.family == "advice");
  s.spec.schedule = sample_schedule(rng, options.max_tau);
  s.spec.algorithm = sample_algorithm(rng, s.family);
  const bool synchronous = s.family == "fast_wakeup" ||
                           s.family == "gossip" || s.family == "sleeping";
  s.spec.delay = synchronous ? "unit" : sample_delay(rng, options.max_tau);
  s.spec.seed = rng();
  return s;
}

sim::Time scenario_tau(const Scenario& s) {
  const app::AlgorithmSetup setup = app::parse_algorithm_spec(s.spec.algorithm);
  if (setup.synchronous) return 1;
  return app::parse_delay_spec(s.spec.delay,
                               app::delay_policy_seed(s.spec.seed))
      ->max_delay();
}

std::uint64_t digest_run(const sim::RunResult& r) {
  std::uint64_t state = 0xD16E57;
  auto fold = [&state](std::uint64_t v) { state = splitmix64(state) ^ v; };
  fold(r.metrics.messages);
  fold(r.metrics.bits);
  fold(r.metrics.deliveries);
  fold(r.metrics.events);
  fold(r.metrics.first_wake);
  fold(r.metrics.last_wake);
  fold(r.metrics.last_delivery);
  fold(r.metrics.tau);
  fold(r.metrics.rounds);
  for (auto v : r.metrics.sent_per_node) fold(v);
  for (auto v : r.metrics.received_per_node) fold(v);
  for (auto t : r.wake_time) fold(t);
  for (auto o : r.outputs) fold(o);
  return splitmix64(state);
}

std::uint64_t model_free_digest(const sim::RunResult& r) {
  std::uint64_t state = 0xD16E58;
  auto fold = [&state](std::uint64_t v) { state = splitmix64(state) ^ v; };
  fold(r.metrics.messages);
  fold(r.metrics.bits);
  fold(r.metrics.deliveries);
  fold(r.metrics.first_wake);
  fold(r.metrics.last_wake);
  fold(r.metrics.last_delivery);
  for (auto v : r.metrics.sent_per_node) fold(v);
  for (auto v : r.metrics.received_per_node) fold(v);
  for (auto t : r.wake_time) fold(t);
  for (auto o : r.outputs) fold(o);
  return splitmix64(state);
}

CheckedRun run_checked(const Scenario& s, const RunVariant& variant) {
  CheckedRun out;
  InvariantChecker checker;

  std::unique_ptr<sim::DelayPolicy> inner;
  std::unique_ptr<LateDeliveryFault> fault;
  app::RunInstruments instruments;
  instruments.trace = &checker;
  instruments.force_sync_engine = variant.force_sync_engine;
  instruments.trial_jobs = variant.trial_jobs;

  sim::Time declared_tau = 1;  // overwritten below for async runs
  if (variant.fault == FaultKind::kLateDelivery && !variant.force_sync_engine) {
    inner = app::parse_delay_spec(s.spec.delay,
                                  app::delay_policy_seed(s.spec.seed));
    declared_tau = inner->max_delay();
    fault = std::make_unique<LateDeliveryFault>(*inner);
    instruments.delay_override = fault.get();
  }

  // Sleeping-model families drop sends to declared-sleeping receivers, so
  // the conservation law the checker enforces changes shape (see RunModel).
  const bool sleeping = app::parse_algorithm_spec(s.spec.algorithm).sleeping;

  instruments.on_setup = [&](const sim::Instance& instance,
                             const sim::WakeSchedule& schedule,
                             const sim::DelayPolicy* delays,
                             bool synchronous) {
    RunModel model;
    model.num_nodes = instance.num_nodes();
    model.synchronous = synchronous;
    model.sleeping = sleeping;
    if (synchronous) {
      model.tau = 1;
    } else if (instruments.delay_override != nullptr) {
      model.tau = declared_tau;  // the un-faulted policy's bound
    } else {
      model.tau = delays->max_delay();
    }
    if (instance.bandwidth() == sim::Bandwidth::CONGEST) {
      model.congest_budget = instance.congest_bit_budget();
    }
    checker.begin(model, schedule);
  };

  try {
    out.report = app::run_experiment(s.spec, instruments);
    out.violations = checker.finish(out.report.result);
    out.digest = digest_run(out.report.result);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

std::string repro_command(const Scenario& s) {
  std::ostringstream os;
  os << "rise_cli --graph " << s.spec.graph << " --schedule "
     << s.spec.schedule << " --algo " << s.spec.algorithm << " --delay "
     << s.spec.delay << " --seed " << s.spec.seed;
  return os.str();
}

}  // namespace rise::check
