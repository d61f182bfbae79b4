// RunProfile: the structured output of an observed run (src/obs).
//
// A profile decomposes the end-of-run Metrics totals along the axes the
// paper reasons about: *which algorithm phase* spent the messages/bits
// (probing vs flooding vs advice decoding), *which node class* sent them,
// where the event loop spent its budget (events popped, queue depth,
// ring-vs-overflow occupancy), and how long each host-side stage took in
// wall-clock. The invariant that makes profiles trustworthy enough to gate
// tests on: per-phase message/bit counts partition the Metrics totals
// exactly — every send is attributed to exactly one phase (phase 0,
// "(unphased)", catches activity before the first mark), so
// sum(phases[i].messages) == metrics.messages always.
//
// Profiles serialize through the repo's deterministic JSON writer
// (src/support/json) and merge across trials into a ProfileAggregate whose
// cross-trial quantiles come from SampleStats — the repo's single quantile
// implementation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "sim/types.hpp"
#include "support/stats.hpp"

namespace rise::json {
class Writer;
struct Value;
}  // namespace rise::json

namespace rise::obs {

/// One algorithm phase's share of the run. Sends are attributed to the
/// *sender's* current phase at send time.
struct PhaseProfile {
  std::string name;
  std::uint64_t marks = 0;     ///< nodes that entered this phase (transitions)
  std::uint64_t messages = 0;  ///< sends attributed to this phase
  std::uint64_t bits = 0;      ///< logical bits of those sends
  sim::Time first_send = sim::kNever;  ///< simulated-time span of the phase's
  sim::Time last_send = 0;             ///< sends; kNever/0 when no sends
  LogHistogram message_bits;   ///< per-send logical size distribution
};

/// One node class's share (classes are algorithm-assigned roles: "root",
/// "l1", ...; class 0 "node" is the default).
struct ClassProfile {
  std::string name;
  std::uint64_t nodes = 0;     ///< nodes in this class at the end of the run
  std::uint64_t messages = 0;  ///< sends by nodes of this class
  LogHistogram sent_per_node;  ///< distribution of per-node send counts
};

/// Event-loop profile. For the asynchronous engine: pops, queue depth, and
/// timing-wheel occupancy, level 0 vs the higher levels. For the synchronous engine:
/// rounds stepped and active-set sizes.
struct EngineProfile {
  std::string backend;  ///< "buckets" (async) | "sync" | "" (not run)
  std::uint64_t events_popped = 0;
  std::uint64_t queue_high_water = 0;  ///< max queue size seen after a push
  std::uint64_t ring_high_water = 0;   ///< timing-wheel level 0 occupancy
  std::uint64_t overflow_high_water = 0;  ///< occupancy of levels 1 and up
  LogHistogram queue_depth;  ///< queue size sampled at every pop
  std::uint64_t rounds_stepped = 0;    ///< sync: rounds that stepped a node
  LogHistogram round_active;           ///< sync: active nodes per round
};

/// A host-side wall-clock span recorded by an obs::PhaseTimer.
struct TimerProfile {
  std::string name;
  std::uint64_t calls = 0;
  double wall_seconds = 0.0;
  std::uint64_t sim_ticks = 0;  ///< optional simulated-time span
};

struct RunProfile {
  // Experiment identity (filled by app::run_profiled).
  std::string algorithm;
  std::string graph;
  std::string schedule;
  std::string delay;
  std::uint64_t seed = 0;
  std::uint32_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  /// Awake distance rho_awk(G, A0) of the run's wake schedule (Eq. 1) — the
  /// quantity the paper's time bounds are stated against, and the search
  /// driver's third objective (src/search).
  std::uint32_t rho_awk = 0;
  bool synchronous = false;

  // Totals mirrored from sim::Metrics — the numbers the phases partition.
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  double time_units = 0.0;

  // Sleeping-model awake accounting (sim::RunResult::awake_rounds). All-zero
  // for families that never declare sleep — awake accounting is maintained
  // for every run, so these stay meaningful (awake_max == rounds a node was
  // stepped) even outside the sleeping model.
  std::uint64_t awake_total = 0;  ///< sum over nodes of per-node awake rounds
  std::uint64_t awake_max = 0;    ///< max per-node awake rounds — the run's
                                  ///< measured awake complexity
  std::uint64_t sleep_dropped = 0;  ///< messages dropped at sleeping nodes
  LogHistogram awake_rounds;  ///< per-node awake-round distribution (all nodes)

  std::vector<PhaseProfile> phases;    ///< phase-id order; [0] = "(unphased)"
  std::vector<ClassProfile> classes;   ///< class-id order; [0] = "node"
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< name-sorted
  EngineProfile engine;
  std::vector<TimerProfile> timers;    ///< creation order

  /// Sum of messages over phases — equals `messages` by construction; the
  /// conformance suite asserts it anyway.
  std::uint64_t phase_message_sum() const;
  std::uint64_t phase_bit_sum() const;

  const PhaseProfile* find_phase(const std::string& name) const;
  std::uint64_t counter(const std::string& name) const;  ///< 0 when absent
};

/// Streams the profile as one JSON object ({"kind": "run_profile", ...}).
void write_profile(json::Writer& w, const RunProfile& p);
std::string profile_to_json(const RunProfile& p);

/// Inverse of write_profile: rebuilds a RunProfile from its parsed JSON
/// document (CheckError unless `doc` is a run_profile object). Exact —
/// integers round-trip through the u64-preserving reader and doubles through
/// the shortest-round-trip writer — so merging parsed profiles in trial-index
/// order reproduces the in-process ProfileAggregate bit for bit; the shard
/// orchestrator's merge path (runner/shard.cpp) relies on exactly this.
RunProfile profile_from_json(const json::Value& doc);

/// Deterministic merge of per-trial profiles (merge order = trial-index
/// order in the campaign runner). Sums are exact; cross-trial distributions
/// (messages, time units, per-phase messages) are SampleStats, so the
/// aggregate reports exact quantiles over trials.
struct PhaseAggregate {
  std::string name;
  std::uint64_t marks = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  LogHistogram message_bits;
  SampleStats messages_per_trial;
};

struct ProfileAggregate {
  std::size_t trials = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t events = 0;
  std::uint64_t awake_total = 0;    ///< summed across trials
  std::uint64_t awake_max = 0;      ///< max across trials
  std::uint64_t sleep_dropped = 0;  ///< summed across trials
  LogHistogram awake_rounds;        ///< merged per-node distributions
  SampleStats messages_per_trial;
  SampleStats time_units;
  SampleStats awake_max_per_trial;  ///< per-trial awake complexity
  std::vector<PhaseAggregate> phases;  ///< name-sorted
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< name-sorted
  EngineProfile engine;  ///< sums / maxima / merged histograms across trials

  void merge(const RunProfile& p);
};

/// Streams the aggregate ({"kind": "profile_aggregate", ...}); phase records
/// carry p50/p90/max message quantiles across trials.
void write_aggregate(json::Writer& w, const ProfileAggregate& a);
std::string aggregate_to_json(const ProfileAggregate& a);

/// Human-readable top-N phase breakdown of an in-memory profile.
std::string format_profile(const RunProfile& p, std::size_t top_n = 8);
std::string format_aggregate(const ProfileAggregate& a, std::size_t top_n = 8);

/// Pretty-prints a parsed profile document — either kind ("run_profile" or
/// "profile_aggregate"); used by `rise_cli profile FILE`. A run_profile
/// prints exactly as format_profile of the profile it was written from.
/// Throws CheckError on documents that are neither.
std::string format_profile_document(const json::Value& doc,
                                    std::size_t top_n = 8);

}  // namespace rise::obs
