#include "search/mutate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace rise::search {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string fmt(std::uint64_t v) { return std::to_string(v); }

bool is_number(const std::string& s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
}

/// Inclusive integer corridor; all draws and perturbations clamp into it.
struct Range {
  std::uint64_t lo;
  std::uint64_t hi;
};

std::uint64_t clamp_into(std::uint64_t v, Range r) {
  if (r.hi < r.lo) r.hi = r.lo;
  return std::min(r.hi, std::max(r.lo, v));
}

/// Uniform draw over the corridor (degenerate corridors collapse to lo).
std::uint64_t draw(Rng& rng, Range r) {
  if (r.hi <= r.lo) return r.lo;
  return r.lo + rng.uniform(r.hi - r.lo + 1);
}

/// Heavy-tailed step: usually a multiplicative factor in [0.4, 2.5] (at
/// least +-1), occasionally a uniform redraw over the whole corridor. The
/// redraw tail lets the hill climber cross the space as fast as the random
/// baseline samples it; the multiplicative body then exploits locally —
/// clamping means a pushed field settles on the corridor bound *exactly*,
/// which uniform sampling almost never hits.
std::uint64_t perturb_count(Rng& rng, std::uint64_t v, Range r) {
  if (rng.chance(0.15)) return draw(rng, r);
  const double factor = 0.4 + 2.1 * rng.uniform_real();
  std::uint64_t nv = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(v) * factor));
  if (nv == v) nv = (rng.chance(0.5) && v > 0) ? v - 1 : v + 1;
  return clamp_into(nv, r);
}

double perturb_prob(Rng& rng, double p, double lo, double hi) {
  if (rng.chance(0.15)) return lo + (hi - lo) * rng.uniform_real();
  const double factor = 0.4 + 2.1 * rng.uniform_real();
  return std::clamp(p * factor, lo, hi);
}

std::uint64_t vary_count(Rng& rng, std::uint64_t v, Range r, bool resample) {
  return resample ? draw(rng, r) : perturb_count(rng, v, r);
}

/// Varies the graph spec's numeric parameters within the family's floors and
/// the limits corridor. `resample` redraws every field uniformly (the random
/// baseline); otherwise exactly one randomly-chosen field is perturbed.
/// Unknown families come back unchanged.
std::string vary_graph(const std::string& spec, Rng& rng,
                       const MutationLimits& limits, bool resample) {
  std::vector<std::string> parts = split(spec, ':');
  if (parts.size() < 2) return spec;
  const std::string& family = parts[0];
  const std::uint64_t min_n = limits.min_nodes;
  const std::uint64_t max_n = std::max<std::uint64_t>(min_n, limits.max_nodes);

  // Single count field: n in [max(floor, min_nodes), max_nodes].
  std::uint64_t floor1 = 0;
  if (family == "path" || family == "tree") floor1 = 2;
  if (family == "cycle" || family == "star" || family == "pendant") floor1 = 3;
  if (family == "complete") floor1 = 4;
  if (floor1 != 0 && is_number(parts[1])) {
    const Range r{std::max(floor1, min_n), max_n};
    return family + ":" + fmt(vary_count(rng, std::stoull(parts[1]), r, resample));
  }

  if (family == "hypercube" && is_number(parts[1])) {
    Range r{1, 1};
    while ((std::uint64_t{1} << (r.hi + 1)) <= max_n && r.hi < 20) ++r.hi;
    while ((std::uint64_t{1} << r.lo) < min_n && r.lo < r.hi) ++r.lo;
    return family + ":" + fmt(vary_count(rng, std::stoull(parts[1]), r, resample));
  }

  if ((family == "grid" || family == "torus")) {
    const std::uint64_t side_floor = family == "torus" ? 3 : 2;
    std::vector<std::string> dims = split(parts[1], 'x');
    if (dims.size() != 2 || !is_number(dims[0]) || !is_number(dims[1])) {
      return spec;
    }
    std::uint64_t vals[2] = {std::stoull(dims[0]), std::stoull(dims[1])};
    const std::size_t first = resample ? 0 : rng.uniform(2);
    const std::size_t count = resample ? 2 : 1;
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t d = (first + k) % 2;
      const std::uint64_t other = std::max<std::uint64_t>(1, vals[1 - d]);
      const Range r{std::max(side_floor, (min_n + other - 1) / other),
                    std::max(side_floor, max_n / other)};
      vals[d] = vary_count(rng, vals[d], r, resample);
    }
    return family + ":" + fmt(vals[0]) + "x" + fmt(vals[1]);
  }

  if ((family == "gnp" || family == "cgnp") && parts.size() == 3 &&
      is_number(parts[1])) {
    std::uint64_t n = std::stoull(parts[1]);
    double p = 0.1;
    try {
      p = std::stod(parts[2]);
    } catch (const std::exception&) {
      return spec;
    }
    const Range r{std::max<std::uint64_t>(4, min_n), max_n};
    if (resample) {
      n = draw(rng, r);
      p = 0.01 + 0.49 * rng.uniform_real();
    } else if (rng.chance(0.5)) {
      n = perturb_count(rng, n, r);
    } else {
      p = perturb_prob(rng, p, 0.01, 0.5);
    }
    return family + ":" + fmt(n) + ":" + fmt(p);
  }

  if (family == "regular" && parts.size() == 3 && is_number(parts[1]) &&
      is_number(parts[2])) {
    std::uint64_t n = std::stoull(parts[1]);
    std::uint64_t d = std::stoull(parts[2]);
    const bool vary_n = resample || rng.chance(0.5);
    if (resample || !vary_n) {
      const Range rd{1, std::min<std::uint64_t>(8, n > 1 ? n - 1 : 1)};
      const std::uint64_t d2 = vary_count(rng, d, rd, resample);
      // Keep n*d even; if neither neighbour of d2 fits, keep the old d.
      if (n * d2 % 2 == 0) {
        d = d2;
      } else if (d2 + 1 <= rd.hi) {
        d = d2 + 1;
      } else if (d2 - 1 >= rd.lo && n * (d2 - 1) % 2 == 0) {
        d = d2 - 1;
      }
    }
    if (vary_n) {
      const Range rn{std::max(d + 1, min_n), std::max(d + 2, max_n)};
      n = vary_count(rng, n, rn, resample);
      if (n * d % 2 != 0) n = (n + 1 <= rn.hi) ? n + 1 : n - 1;
    }
    return family + ":" + fmt(n) + ":" + fmt(d);
  }

  if ((family == "lollipop" || family == "barbell") && parts.size() == 3 &&
      is_number(parts[1]) && is_number(parts[2])) {
    std::uint64_t a = std::stoull(parts[1]);
    std::uint64_t b = std::stoull(parts[2]);
    const Range ra{std::max<std::uint64_t>(3, min_n / 2),
                   std::max<std::uint64_t>(3, max_n / 2)};
    const Range rb{1, std::max<std::uint64_t>(1, max_n / 2)};
    if (resample) {
      a = draw(rng, ra);
      b = draw(rng, rb);
    } else if (rng.chance(0.5)) {
      a = perturb_count(rng, a, ra);
    } else {
      b = perturb_count(rng, b, rb);
    }
    return family + ":" + fmt(a) + ":" + fmt(b);
  }

  return spec;  // unknown family: caller falls through to the seed gene
}

std::string vary_schedule(const std::string& spec, Rng& rng,
                          const MutationLimits& limits) {
  // Half the steps tweak numeric knobs in place, half jump to a fresh kind;
  // kinds without knobs (single/all/dominating/set) always jump.
  if (rng.chance(0.5)) return check::sample_schedule(rng, limits.max_tau);
  std::vector<std::string> parts = split(spec, ':');
  if (parts[0] == "random" && parts.size() == 2) {
    try {
      return "random:" + fmt(perturb_prob(rng, std::stod(parts[1]), 0.02, 0.95));
    } catch (const std::exception&) {
      return check::sample_schedule(rng, limits.max_tau);
    }
  }
  if (parts[0] == "staggered" && parts.size() == 3 && is_number(parts[1])) {
    const std::uint64_t cap = 4 * static_cast<std::uint64_t>(limits.max_tau);
    if (rng.chance(0.5)) {
      return "staggered:" +
             fmt(perturb_count(rng, std::stoull(parts[1]), {1, cap})) + ":" +
             parts[2];
    }
    try {
      const double growth =
          std::clamp(std::stod(parts[2]) * (0.5 + 1.5 * rng.uniform_real()),
                     1.2, 4.0);
      return "staggered:" + parts[1] + ":" + fmt(growth);
    } catch (const std::exception&) {
      return check::sample_schedule(rng, limits.max_tau);
    }
  }
  return check::sample_schedule(rng, limits.max_tau);
}

std::string resample_delay(Rng& rng, const MutationLimits& limits) {
  const std::uint64_t max_tau =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(limits.max_tau));
  const std::uint64_t tau = draw(rng, {1, max_tau});
  switch (rng.uniform(5)) {
    case 0:
      return "unit";
    case 1:
      return "fixed:" + fmt(tau);
    case 2:
      return "random:" + fmt(tau);
    case 3:
      return "slow:" + fmt(std::max<std::uint64_t>(2, tau)) + ":" +
             fmt(draw(rng, {2, 8}));
    default:
      return "congestion:" + fmt(tau);
  }
}

std::string vary_delay(const std::string& spec, Rng& rng,
                       const MutationLimits& limits) {
  if (rng.chance(0.5)) return resample_delay(rng, limits);
  std::vector<std::string> parts = split(spec, ':');
  const std::uint64_t max_tau =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(limits.max_tau));
  if ((parts[0] == "fixed" || parts[0] == "random" ||
       parts[0] == "congestion") &&
      parts.size() == 2 && is_number(parts[1])) {
    return parts[0] + ":" +
           fmt(perturb_count(rng, std::stoull(parts[1]), {1, max_tau}));
  }
  if (parts[0] == "slow" && parts.size() == 3 && is_number(parts[1]) &&
      is_number(parts[2])) {
    if (rng.chance(0.5)) {
      return "slow:" +
             fmt(perturb_count(rng, std::stoull(parts[1]),
                               {2, std::max<std::uint64_t>(2, max_tau)})) +
             ":" + parts[2];
    }
    return "slow:" + parts[1] + ":" +
           fmt(perturb_count(rng, std::stoull(parts[2]), {2, 8}));
  }
  return resample_delay(rng, limits);
}

bool algorithm_is_synchronous(const std::string& algorithm) {
  return app::parse_algorithm_spec(algorithm).synchronous;
}

}  // namespace

check::Scenario mutate(const check::Scenario& scenario, Rng& rng,
                       const MutationLimits& limits) {
  RISE_CHECK(limits.min_nodes >= 2 && limits.max_nodes >= limits.min_nodes);
  check::Scenario out = scenario;
  const bool synchronous = algorithm_is_synchronous(out.spec.algorithm);
  // Gene order: graph, schedule, [delay,] seed.
  const std::uint64_t gene = rng.uniform(synchronous ? 3 : 4);
  if (gene == 0) {
    out.spec.graph = vary_graph(out.spec.graph, rng, limits, /*resample=*/false);
    if (out.spec.graph == scenario.spec.graph) out.spec.seed = rng();
  } else if (gene == 1) {
    out.spec.schedule = vary_schedule(out.spec.schedule, rng, limits);
  } else if (!synchronous && gene == 2) {
    out.spec.delay = vary_delay(out.spec.delay, rng, limits);
  } else {
    out.spec.seed = rng();
  }
  if (synchronous) out.spec.delay = "unit";
  return out;
}

check::Scenario random_genome(const check::Scenario& prototype, Rng& rng,
                              const MutationLimits& limits) {
  RISE_CHECK(limits.min_nodes >= 2 && limits.max_nodes >= limits.min_nodes);
  check::Scenario out = prototype;
  const bool synchronous = algorithm_is_synchronous(out.spec.algorithm);
  out.spec.graph = vary_graph(out.spec.graph, rng, limits, /*resample=*/true);
  out.spec.schedule = check::sample_schedule(rng, limits.max_tau);
  out.spec.delay = synchronous ? "unit" : resample_delay(rng, limits);
  out.spec.seed = rng();
  return out;
}

}  // namespace rise::search
