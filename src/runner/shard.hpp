// Sharded multi-process campaigns: a deterministic trial-index partition of
// a CampaignPlan, and an orchestrator that runs one rise_cli worker process
// per shard against a shared content-addressed result store (src/store) and
// merges the workers' JSON output into the single-process results document.
//
// Why partitioning by trial index is safe: runner::trial_seed derives every
// trial's seed purely from (base seed, trial index) — never from which
// process or thread runs it — so the set of (config, seed) inputs, and hence
// every per-trial result digest, is invariant under any shard split. The
// merged per-trial digest stream of an N-shard run (including one that was
// killed and resumed from the store) is bit-identical to a --jobs 1
// single-process run of the same plan; test_runner_shard pins this.
//
// Orchestrator lifecycle: fork/exec one worker per shard (rise_cli itself,
// with --shard k/N --store DIR --json DIR/worker-k.json), poll for exits,
// restart crashed workers (nonzero exit >= 2 or a fatal signal) up to a
// restart budget — a restarted worker re-opens the store and serves every
// trial it already completed from cache, so it resumes exactly where it
// died — then merge: parse each worker document with the src/support/json
// reader, reassemble the full trial vector in trial-index order, aggregate
// with the same algebra run_campaign uses (ProfileAggregate included when
// profiling), and write the merged document/profile.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/campaign.hpp"

namespace rise::runner {

// ShardSpec is defined in runner/campaign.hpp (it is part of
// CampaignOptions); this header adds the planner and orchestrator.

/// Parses "K/N" (e.g. "2/8"); CheckError unless 0 <= K < N.
ShardSpec parse_shard_spec(const std::string& text);

/// True iff `trial_index` belongs to `shard` (index % count == shard index).
bool shard_owns(const ShardSpec& shard, std::size_t trial_index);

/// The subset of `trials` owned by `shard`, in trial-index order. The union
/// over all shards is exactly `trials`, disjointly.
std::vector<Trial> shard_trials(const std::vector<Trial>& trials,
                                const ShardSpec& shard);

/// Options of the multi-process orchestrator (rise_cli shard).
struct ShardCampaignOptions {
  std::string exe;            ///< path to the rise_cli binary to exec
  std::string store_dir;      ///< shared result store (required)
  std::uint32_t workers = 2;  ///< shard count == worker process count
  std::size_t jobs_per_worker = 1;  ///< --jobs forwarded to each worker
  /// --trial-jobs forwarded to each worker (intra-trial round parallelism;
  /// see CampaignOptions::trial_jobs). 1 = not forwarded.
  std::uint32_t trial_jobs = 1;
  int max_restarts = 3;       ///< per-worker crash-restart budget
  bool progress = false;      ///< aggregate multi-shard progress on stderr
  std::string json_path;      ///< merged results document ("" = none)
  bool profile = false;       ///< workers embed per-trial profiles; merged
  std::string profile_path;   ///< merged profile_aggregate path

  /// Fault injection for the resume tests: worker `die_worker` is launched
  /// (first launch only) with --die-after `die_after`, making it SIGKILL
  /// itself after that many executed (non-cached) trials. 0 = off.
  int die_after = 0;
  std::uint32_t die_worker = 0;
};

struct ShardCampaignReport {
  bool ok = false;             ///< all workers completed and merge succeeded
  CampaignResult merged;       ///< valid when ok
  std::uint64_t store_hits = 0;    ///< summed over workers
  std::uint64_t store_misses = 0;  ///< summed over workers
  std::uint64_t restarts = 0;      ///< total worker restarts performed
  std::string error;           ///< first fatal orchestration error when !ok
};

/// Runs `plan` as a sharded multi-process campaign. Writes the merged JSON
/// results document (and merged profile) per `options`; returns the merged
/// campaign result plus orchestration counters. The workers re-derive the
/// plan from the command line that worker_command builds.
ShardCampaignReport run_shard_campaign(const CampaignPlan& plan,
                                       const ShardCampaignOptions& options);

/// The argv (exe first, no trailing null) used to launch worker `shard` of
/// `plan`. Exposed for tests; run_shard_campaign execs exactly this.
std::vector<std::string> worker_command(const CampaignPlan& plan,
                                        const ShardCampaignOptions& options,
                                        std::uint32_t shard,
                                        bool first_launch);

}  // namespace rise::runner
