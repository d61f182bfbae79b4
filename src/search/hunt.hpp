// The optimizing adversary driver: (1+lambda) evolutionary search /
// simulated annealing over scenario genomes, maximizing a run-profile
// objective (search/objective.hpp). Where the fuzzer (check/fuzz.hpp) asks
// "does anything break?", the hunter asks "how BAD can the adversary make
// it?" — it searches wake schedules, delay policies, graph parameters, and
// KT0 port permutations (the seed gene) for empirical worst cases to hold
// against the paper's envelopes.
//
// Determinism contract (same as the campaign runner): a hunt is a pure
// function of its options. Candidate genomes are constructed on the
// coordinating thread from SplitMix64 streams keyed on (seed, generation,
// slot); evaluations run on `jobs` lanes of a runner::ThreadPool
// (runner::run_lanes) into per-candidate slots; selection reads the slots
// in index order with lowest-index tie-breaks. Same options => same
// champion, trajectory, and corpus entry, for any --jobs value. No wall
// clock anywhere.
//
// The equal-budget random baseline re-spends exactly the search's evaluation
// budget on uniform random genomes over the same space (mutate.hpp's
// random_genome), so "search beats random" is an apples-to-apples claim —
// bench_hunt's gated hunts exit 1 when it fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/corpus.hpp"
#include "check/scenario.hpp"
#include "obs/profile.hpp"
#include "search/mutate.hpp"
#include "search/objective.hpp"

namespace rise::search {

struct HuntOptions {
  check::Scenario initial;  ///< starting genome; its algorithm/family is held
                            ///< fixed for the whole hunt
  Objective objective = Objective::kMessages;
  /// Search family: "ea" ((1+lambda) hill climber with neutral drift) or
  /// "anneal" (same proposal machinery, Metropolis acceptance on a linear
  /// temperature ramp; best-so-far is tracked separately so the reported
  /// champion is monotone either way).
  std::string algorithm = "ea";
  std::uint64_t budget = 256;  ///< total evaluations, >= 2
  std::size_t lambda = 8;      ///< offspring per generation, >= 1
  std::uint64_t seed = 1;
  std::size_t jobs = 1;  ///< concurrent evaluations; 0 = all hardware threads
  /// Intra-trial round parallelism for synchronous evaluations (see
  /// CampaignOptions::trial_jobs). The pool is sized jobs x trial_jobs and
  /// at most `jobs` candidates are evaluated at once; objective values are
  /// bit-identical for any setting.
  std::uint32_t trial_jobs = 1;
  bool baseline = true;  ///< run the equal-budget uniform-random control
  MutationLimits limits;
};

/// One strict improvement of the best-so-far.
struct TrajectoryPoint {
  std::uint64_t evaluations = 0;  ///< evals consumed when this best was found
  double value = 0.0;
};

struct HuntReport {
  Objective objective = Objective::kMessages;
  std::string algorithm;         ///< search family that ran
  std::uint64_t evaluations = 0; ///< search evals spent (baseline excluded)
  std::size_t jobs = 1;          ///< resolved concurrent evaluations
  std::uint64_t failed_runs = 0; ///< evaluations whose replay threw

  check::Scenario champion;
  double champion_value = -1.0;  ///< -1 when every evaluation failed
  obs::RunProfile champion_profile;
  std::uint64_t champion_digest = 0;  ///< run_checked digest of the champion
  std::vector<std::string> champion_violations;
  bool champion_clean = false;  ///< checked replay had no violations/errors

  double envelope = 0.0;  ///< analytical bound for the champion (0 = none)
  std::vector<TrajectoryPoint> trajectory;  ///< strictly increasing values

  bool baseline_run = false;
  check::Scenario baseline_champion;
  double baseline_value = -1.0;

  /// champion_value / envelope when an envelope is known, else 0.
  double envelope_ratio() const {
    return envelope > 0.0 ? champion_value / envelope : 0.0;
  }
};

HuntReport run_hunt(const HuntOptions& options);

/// The champion as a regression-corpus entry (check/corpus.hpp). CheckError
/// unless the champion's checked replay was clean — a dirty champion is a
/// fuzzer-grade finding, not a corpus entry.
check::CorpusEntry champion_entry(const HuntReport& report);

/// Human-readable multi-line summary.
std::string format_hunt(const HuntReport& report);

/// One JSON object ({"kind": "hunt_report", ...}), written by
/// `rise_cli hunt --json`.
std::string hunt_to_json(const HuntReport& report);

}  // namespace rise::search
