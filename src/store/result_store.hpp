// Content-addressed, resumable on-disk result store for campaign trials.
//
// Layout of a store directory:
//
//   store/
//     manifest.json      committed atomically (write temp + rename) at
//                        creation; identifies the directory and pins the
//                        store schema version so a wrong-version or foreign
//                        directory is rejected instead of misread
//     <tag>.rsl          one append-only record log per writer tag (a solo
//                        campaign writes solo.rsl; shard worker k writes
//                        shard-K.rsl), so concurrent worker *processes*
//                        never interleave writes within one file
//
// Each log record frames one TrialRecord:
//
//   u32 magic 'RSL1' | u32 payload_len | u64 key_hi | u64 key_lo
//   | payload bytes | u64 fnv1a64(key bytes + payload)
//
// all little-endian. Appends go through one buffered write plus a flush, so
// a crash (including SIGKILL) can lose or tear at most the tail record of
// the crashed writer's log. Recovery is structural: opening a store scans
// every log front to back and stops a file at the first frame whose magic,
// length, checksum, payload decoding, or recomputed content key fails —
// torn tails are skipped and counted, never trusted. The owner of a log
// additionally truncates its own torn tail before appending again, so new
// records are never written after garbage.
//
// Lookup serves the campaign runner's read-through path: a trial whose
// trial_key has a record (with matching spec strings — collisions are
// verified away) is materialized from the store instead of re-executed,
// which is what makes interrupted campaigns resume exactly where they died
// and repeated grid points free across campaigns.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/spec.hpp"
#include "store/digest.hpp"

namespace rise::store {

/// Version of the record/manifest format. Bump on breaking changes.
inline constexpr std::uint64_t kStoreSchemaVersion = 1;

/// The scalar outcome of one campaign trial. It is defined once, here:
/// runner::TrialResult and TrialRecord both inherit it, and the store
/// payload, the results-JSON trial record and the shard merge's reader all
/// walk it through for_each_outcome_field. Per-node vectors are deliberately
/// not kept, so retaining thousands of trials stays cheap.
struct TrialOutcome {
  bool ok = false;    ///< ran to completion without throwing
  std::string error;  ///< exception text when !ok

  // Topology and model (valid when ok).
  std::uint32_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint32_t rho_awk = 0;
  bool synchronous = false;

  // Outcome metrics (valid when ok).
  bool all_awake = false;
  std::uint32_t awake_count = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  double time_units = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t wakeup_span = 0;  ///< only meaningful when all_awake
  std::uint64_t awake_node_ticks = 0;
  std::uint64_t advice_max_bits = 0;
  double advice_avg_bits = 0.0;

  /// check::digest_run of the trial's full RunResult (0 when !ok). A pure
  /// function of the trial's inputs, so it is the unit the shard/resume
  /// equivalence invariant is stated over: any shard split or store-resumed
  /// run must reproduce the single-process digest stream bit for bit.
  std::uint64_t result_digest = 0;

  /// Wall clock of the execution. Nondeterministic — excluded from every
  /// aggregate; a store-served trial reports its original execution's.
  double wall_ms = 0.0;
};

/// Calls f(name, member) for the 15 scalars from num_nodes to result_digest,
/// in the order both the store payload and the results JSON lay them out;
/// `name` is the member's results-JSON key. `ok`, `error` and `wall_ms` are
/// placed by each format itself.
template <typename Outcome, typename F>
void for_each_outcome_field(Outcome& o, F&& f) {
  f("n", o.num_nodes);
  f("m", o.num_edges);
  f("rho_awk", o.rho_awk);
  f("synchronous", o.synchronous);
  f("all_awake", o.all_awake);
  f("awake_count", o.awake_count);
  f("messages", o.messages);
  f("bits", o.bits);
  f("time_units", o.time_units);
  f("rounds", o.rounds);
  f("wakeup_span", o.wakeup_span);
  f("awake_node_ticks", o.awake_node_ticks);
  f("advice_max_bits", o.advice_max_bits);
  f("advice_avg_bits", o.advice_avg_bits);
  f("digest", o.result_digest);
}

/// One stored trial: the identity that was executed (the digest preimage:
/// spec strings + seed + preparation tag) and its outcome.
struct TrialRecord : TrialOutcome {
  std::string graph;
  std::string schedule;
  std::string algorithm;
  std::string delay;
  std::uint64_t seed = 0;
  std::string prepare_tag;
};

/// The record's content key: trial_key over its identity fields.
Digest128 record_key(const TrialRecord& r);

/// Serializes the record payload (everything after the frame header).
std::vector<std::uint8_t> encode_record(const TrialRecord& r);

/// Inverse of encode_record; throws CheckError on malformed bytes.
TrialRecord decode_record(const std::uint8_t* data, std::size_t size);

struct RecoveryStats {
  std::uint64_t files = 0;         ///< logs scanned at open
  std::uint64_t records = 0;       ///< well-formed records loaded
  std::uint64_t torn_files = 0;    ///< logs that ended in a torn/corrupt tail
  std::uint64_t torn_bytes = 0;    ///< bytes skipped across those tails
};

class ResultStore {
 public:
  /// Opens (creating if needed) the store at `dir`. `writer_tag` names this
  /// process's own log ("solo", "shard-3", ...); pass "" for a read-only
  /// view (append() then throws). Creation commits manifest.json via
  /// temp-file + atomic rename; opening an existing directory validates it.
  /// The writer's own log, if it has a torn tail, is truncated to its last
  /// well-formed record so future appends stay readable. Throws CheckError
  /// (message naming the path) when the directory cannot be created or
  /// written, or when the manifest belongs to something else.
  explicit ResultStore(const std::string& dir, const std::string& writer_tag);
  ~ResultStore();
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// The loaded record for `key`, with identity verified against `spec` and
  /// `prepare_tag` (a 128-bit collision is demoted to a miss). nullptr on
  /// miss. Thread-safe against concurrent lookup/append in this process;
  /// records appended by *other* processes after open are not visible until
  /// reopen (shards own disjoint trials, so workers never need them).
  const TrialRecord* lookup(const Digest128& key,
                            const app::ExperimentSpec& spec,
                            const std::string& prepare_tag) const;

  /// Appends one record to this writer's log and flushes it to the OS, then
  /// publishes it to lookup(). Thread-safe.
  void append(const TrialRecord& r);

  const RecoveryStats& recovery() const { return recovery_; }
  std::size_t size() const;
  const std::string& dir() const { return dir_; }

  /// Counts well-formed records across every log in `dir` right now —
  /// tolerant of concurrent appends and torn tails (used by the shard
  /// orchestrator's aggregate progress poll). 0 for a missing/empty dir.
  static std::uint64_t count_records(const std::string& dir);

 private:
  void load_log(const std::string& path, bool own_log);

  std::string dir_;
  std::string log_path_;  ///< empty in read-only mode
  RecoveryStats recovery_;
  mutable std::mutex mu_;
  std::unordered_map<Digest128, TrialRecord, Digest128Hash> records_;
  int fd_ = -1;  ///< O_APPEND descriptor of this writer's log
};

}  // namespace rise::store
