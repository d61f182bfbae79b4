// Run-invariant checking: the model-level laws every execution must obey.
//
// The paper's claims (Theorems 1-6, Table 1) quantify over *all* adversarial
// wake-up schedules and delay assignments, and their proofs lean on exact
// causality and time-unit accounting. Golden traces pin five scenarios; the
// InvariantChecker pins the laws themselves, on any scenario the fuzzer
// (src/check/fuzz.hpp) throws at the engines:
//
//   Causality      every delivery lands in [send + 1, send + tau], matched
//                  FIFO per directed channel (deliveries never outrun or
//                  overtake their sends).
//   Conservation   deliveries <= messages, with equality when nothing was
//                  truncated (sleeping-model runs instead balance exactly:
//                  sends == deliveries + metrics.sleep_dropped);
//                  sum(sent_per_node) == messages and
//                  sum(received_per_node) == deliveries, elementwise against
//                  the observed trace.
//   Monotonicity   the asynchronous event stream is non-decreasing in time;
//                  the synchronous engine's sends, deliveries and wakes are
//                  each non-decreasing (its trace interleaves round r sends
//                  with round r+1 deliveries by design).
//   Wake origin    a node wakes at most once; an adversary wake matches a
//                  (time, node) entry of the schedule; a message wake happens
//                  at exactly the first delivery the node received while
//                  asleep (and every such delivery wakes its receiver); every
//                  scheduled node is awake no later than its scheduled time.
//   CONGEST        no message exceeds the instance's bit budget.
//   Accounting     metrics.{messages, bits, deliveries, first_wake,
//                  last_wake, last_delivery, tau}, RunResult.wake_time, and
//                  the derived time_units() / wakeup_span() all agree with
//                  the trace.
//
// The checker is a TraceSink: attach it (alone or through a TeeTraceSink)
// to any engine run, then call finish() with the engine's RunResult. It
// observes only — a checked run is bit-identical to an unchecked one.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace rise::check {

/// What the checker knows about the run before it starts: the model
/// parameters the invariants are stated against.
struct RunModel {
  sim::NodeId num_nodes = 0;
  sim::Time tau = 1;          ///< the *scenario's* declared max delay
  bool synchronous = false;   ///< lock-step engine (per-stream monotonicity)
  std::optional<std::uint64_t> congest_budget;  ///< bits/message, if CONGEST
  /// Sleeping-model run (SyncRunLimits::sleeping_model): sends to a
  /// declared-sleeping receiver are charged but dropped, so conservation
  /// tightens to sends == deliveries + metrics.sleep_dropped instead of
  /// sends == deliveries.
  bool sleeping = false;
};

class InvariantChecker final : public sim::TraceSink {
 public:
  /// Resets all state and arms the checker for one run. The schedule is
  /// copied into a node -> wake-time index; it need not outlive the call.
  void begin(const RunModel& model, const sim::WakeSchedule& schedule);

  void on_send(sim::Time t, sim::NodeId from, sim::NodeId to,
               const sim::Message& msg, Words words) override;
  void on_deliver(sim::Time t, sim::NodeId from, sim::NodeId to,
                  const sim::Message& msg, Words words) override;
  void on_node_wake(sim::Time t, sim::NodeId node,
                    sim::WakeCause cause) override;

  /// Cross-checks the engine's reported result against the observed trace
  /// and returns every violation found (online + final). Empty == clean.
  /// At most kMaxRecorded violations are spelled out; overflow is counted.
  std::vector<std::string> finish(const sim::RunResult& result);

  /// Violations recorded so far (before finish()).
  const std::vector<std::string>& violations() const { return violations_; }
  std::size_t violation_count() const { return violation_count_; }

  static constexpr std::size_t kMaxRecorded = 64;

 private:
  void violation(const std::string& text);

  RunModel model_;
  std::unordered_map<sim::NodeId, sim::Time> scheduled_;  // node -> wake time

  // Online trace state.
  std::unordered_map<std::uint64_t, std::deque<sim::Time>> in_flight_;
  std::unordered_map<std::uint64_t, sim::Time> channel_last_delivery_;
  std::vector<std::uint32_t> sent_;
  std::vector<std::uint32_t> received_;
  std::vector<sim::Time> last_delivery_to_;
  std::vector<sim::Time> earliest_delivery_to_;
  std::vector<sim::Time> wake_time_;
  std::uint64_t sends_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t bits_ = 0;
  std::uint64_t wakes_ = 0;
  sim::Time last_event_t_ = 0;   // async: global stream floor
  sim::Time last_send_t_ = 0;    // sync: per-stream floors
  sim::Time last_deliver_t_ = 0;
  sim::Time last_wake_t_ = 0;
  sim::Time max_event_t_ = 0;
  sim::Time first_wake_ = sim::kNever;

  std::vector<std::string> violations_;
  std::size_t violation_count_ = 0;
};

}  // namespace rise::check
