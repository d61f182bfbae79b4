#include "check/shrink.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace rise::check {

namespace {

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

bool is_number(const std::string& s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; });
}

std::uint64_t halved(std::uint64_t v, std::uint64_t floor) {
  return std::max(floor, v / 2);
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Candidates for one graph spec: each numeric field halved toward its
/// family's floor, one candidate per field.
std::vector<std::string> graph_candidates(const std::string& spec) {
  std::vector<std::string> out;
  std::vector<std::string> parts = split(spec, ':');
  if (parts.size() < 2) return out;
  const std::string& family = parts[0];

  // Per-field floors; 0 marks a non-shrinkable field (probabilities etc.).
  std::vector<std::uint64_t> floors;
  if (family == "path" || family == "complete" || family == "tree") {
    floors = {2};
  } else if (family == "cycle" || family == "star" || family == "pendant") {
    floors = {3};
  } else if (family == "hypercube") {
    floors = {1};
  } else if (family == "cgnp" || family == "gnp") {
    floors = {4, 0};
  } else if (family == "lollipop" || family == "barbell") {
    floors = {3, 1};
  } else if (family == "grid" || family == "torus") {
    // One RxC field; both sides shrink together below.
    const std::uint64_t side_floor = family == "torus" ? 3 : 2;
    std::vector<std::string> dims = split(parts[1], 'x');
    if (dims.size() == 2 && is_number(dims[0]) && is_number(dims[1])) {
      for (std::size_t d = 0; d < 2; ++d) {
        const std::uint64_t v = std::stoull(dims[d]);
        const std::uint64_t w = halved(v, side_floor);
        if (w != v) {
          std::vector<std::string> nd = dims;
          nd[d] = std::to_string(w);
          out.push_back(family + ":" + join(nd, 'x'));
        }
      }
    }
    return out;
  } else if (family == "regular") {
    // n:d with n > d and n*d even.
    if (parts.size() == 3 && is_number(parts[1]) && is_number(parts[2])) {
      const std::uint64_t n = std::stoull(parts[1]);
      const std::uint64_t d = std::stoull(parts[2]);
      std::uint64_t n2 = halved(n, d + 1);
      if (n2 * d % 2 != 0) ++n2;
      if (n2 < n) {
        out.push_back(family + ":" + std::to_string(n2) + ":" +
                      std::to_string(d));
      }
      const std::uint64_t d2 = halved(d, 1);
      if (d2 != d && n * d2 % 2 == 0) {
        out.push_back(family + ":" + std::to_string(n) + ":" +
                      std::to_string(d2));
      }
    }
    return out;
  } else {
    return out;  // unknown family: leave the graph alone
  }

  for (std::size_t f = 0; f < floors.size() && f + 1 < parts.size(); ++f) {
    if (floors[f] == 0 || !is_number(parts[f + 1])) continue;
    const std::uint64_t v = std::stoull(parts[f + 1]);
    const std::uint64_t w = halved(v, floors[f]);
    if (w == v) continue;
    std::vector<std::string> np = parts;
    np[f + 1] = std::to_string(w);
    out.push_back(join(np, ':'));
  }
  return out;
}

/// Candidates for a wake-schedule spec: "single" first (the most aggressive
/// step), then in-family reductions — staggered:k:f halves its gap toward 1
/// and its growth toward 1.2 (the generator's own floor, and safely above
/// the >= 1 the staggered construction requires), set:a,b,c drops one member
/// per candidate while at least one remains.
std::vector<std::string> schedule_candidates(const std::string& spec) {
  std::vector<std::string> out;
  if (spec == "single") return out;
  out.push_back("single");
  std::vector<std::string> parts = split(spec, ':');
  if (parts[0] == "staggered" && parts.size() == 3) {
    if (is_number(parts[1])) {
      const std::uint64_t k = std::stoull(parts[1]);
      const std::uint64_t k2 = halved(k, 1);
      if (k2 != k) {
        out.push_back("staggered:" + std::to_string(k2) + ":" + parts[2]);
      }
    }
    try {
      const double growth = std::stod(parts[2]);
      const double g2 = std::max(1.2, growth / 2.0);
      if (g2 < growth - 1e-9) {
        out.push_back("staggered:" + parts[1] + ":" + fmt(g2));
      }
    } catch (const std::exception&) {
      // non-numeric growth: leave it to the swap-to-single candidate
    }
  } else if (parts[0] == "set" && parts.size() == 2) {
    const std::vector<std::string> members = split(parts[1], ',');
    if (members.size() > 1) {
      for (std::size_t drop = 0; drop < members.size(); ++drop) {
        std::vector<std::string> kept;
        for (std::size_t i = 0; i < members.size(); ++i) {
          if (i != drop) kept.push_back(members[i]);
        }
        out.push_back("set:" + join(kept, ','));
      }
    }
  }
  return out;
}

/// Candidates for a delay spec: "unit" first, then each numeric field halved
/// (tau toward 1; slow's ONE_IN toward 2).
std::vector<std::string> delay_candidates(const std::string& spec) {
  std::vector<std::string> out;
  if (spec == "unit") return out;
  out.push_back("unit");
  std::vector<std::string> parts = split(spec, ':');
  std::vector<std::uint64_t> floors;
  if (parts[0] == "slow") {
    floors = {2, 2};
  } else {
    floors = {1};
  }
  for (std::size_t f = 0; f < floors.size() && f + 1 < parts.size(); ++f) {
    if (!is_number(parts[f + 1])) continue;
    const std::uint64_t v = std::stoull(parts[f + 1]);
    const std::uint64_t w = halved(v, floors[f]);
    if (w == v) continue;
    std::vector<std::string> np = parts;
    np[f + 1] = std::to_string(w);
    out.push_back(join(np, ':'));
  }
  return out;
}

/// Memo key for a candidate: the three spec strings that shrinking varies
/// (algorithm and seed are held fixed, so this identifies the scenario).
std::string candidate_key(const Scenario& s) {
  return s.spec.graph + '|' + s.spec.schedule + '|' + s.spec.delay;
}

}  // namespace

std::vector<Scenario> shrink_candidates(const Scenario& s) {
  std::vector<Scenario> out;
  for (const std::string& g : graph_candidates(s.spec.graph)) {
    Scenario c = s;
    c.spec.graph = g;
    out.push_back(std::move(c));
  }
  for (const std::string& w : schedule_candidates(s.spec.schedule)) {
    Scenario c = s;
    c.spec.schedule = w;
    out.push_back(std::move(c));
  }
  for (const std::string& d : delay_candidates(s.spec.delay)) {
    Scenario c = s;
    c.spec.delay = d;
    out.push_back(std::move(c));
  }
  return out;
}

ShrinkResult shrink_scenario(
    const Scenario& failing,
    const std::function<bool(const Scenario&)>& still_fails,
    const ShrinkOptions& options) {
  ShrinkResult res;
  res.scenario = failing;
  ++res.evaluations;
  RISE_CHECK_MSG(still_fails(failing),
                 "shrink_scenario: the input scenario does not fail");

  // Candidate specs already rejected anywhere in this shrink. When an
  // accepted step stays within one component (e.g. a delay-halving chain),
  // the restart re-proposes the other candidates of that component verbatim
  // — the swap-to-"unit" candidate after every accepted halving, say.
  // Skipping those spends max_evaluations on new candidates only.
  std::unordered_set<std::string> rejected;
  bool improved = true;
  while (improved && res.evaluations < options.max_evaluations) {
    improved = false;
    for (const Scenario& cand : shrink_candidates(res.scenario)) {
      if (res.evaluations >= options.max_evaluations) break;
      std::string key = candidate_key(cand);
      if (rejected.count(key) != 0) {
        ++res.memo_skips;
        continue;
      }
      ++res.evaluations;
      if (still_fails(cand)) {
        res.scenario = cand;
        ++res.steps;
        improved = true;
        break;  // restart from the simplified scenario
      }
      rejected.insert(std::move(key));
    }
  }
  return res;
}

}  // namespace rise::check
