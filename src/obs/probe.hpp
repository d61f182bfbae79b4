// Probe: the opt-in run observer behind every profile (src/obs).
//
// A Probe is attached to a run through RunInstruments (or directly via
// AsyncEngine/SyncEngine::set_probe) and collects phase marks, node-class
// marks, named counters, per-send attribution, and event-loop statistics.
// Algorithms never touch the Probe directly — they go through the
// NodeProbe value handle returned by Context::probe(), which is null when
// no probe is attached and then compiles to a pointer test per call.
//
// The observation contract (same as TraceSink): a probe only *reads* the
// run. It draws no randomness, sends no messages, and never changes
// engine control flow, so a run with a probe attached is bit-identical to
// the same run without one. test_properties_engines pins this with a
// 50-scenario digest property.
//
// Attribution model:
//   * every node is in exactly one phase at a time (phase 0 =
//     "(unphased)" until the algorithm's first mark) and one class
//     (class 0 = "node");
//   * a send is charged to the *sender's* phase and class at send time,
//     so per-phase message/bit sums partition the Metrics totals exactly;
//   * re-marking the current phase is a no-op (marks count transitions).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/profile.hpp"
#include "sim/types.hpp"

namespace rise::sim {
struct RunResult;
}  // namespace rise::sim

namespace rise::obs {

/// One algorithm-facing probe mutation recorded during a sync chunk
/// (SyncRunner::step_round) instead of applied immediately:
/// mark_phase / mark_class / add_counter all mutate shared intern tables,
/// and a send's phase attribution depends on the exact mark-vs-send
/// interleaving — so worker threads append DeferredMarks and the engine's
/// sequential reduction replays them in the sequential order. `seq` is the
/// number of sends the recording chunk had emitted when the mark happened:
/// the reduction applies every mark with seq <= s before accounting send s,
/// which reproduces the sequential interleaving exactly.
struct DeferredMark {
  enum class Kind : std::uint8_t { kPhase, kClass, kCounter };
  std::uint64_t seq = 0;
  Kind kind = Kind::kPhase;
  sim::NodeId node = 0;
  std::string name;
  std::uint64_t count = 0;  ///< kCounter only
};

/// Installs thread-local deferral for the calling thread: while a scope is
/// alive, Probe::mark_phase / mark_class / add_counter append to `marks`
/// (stamped with *seq at call time) instead of mutating the probe. The
/// engine-facing probe surface (on_send, on_sync_round, ...) is unaffected
/// — the engine only calls it from the coordinating thread.
class DeferredMarkScope {
 public:
  DeferredMarkScope(std::vector<DeferredMark>* marks,
                    const std::uint64_t* seq);
  ~DeferredMarkScope();

  DeferredMarkScope(const DeferredMarkScope&) = delete;
  DeferredMarkScope& operator=(const DeferredMarkScope&) = delete;
};

class Probe {
 public:
  Probe();

  // ---- engine-facing surface -------------------------------------------
  /// Sizes the per-node phase/class tables; the engines call this once
  /// before the run starts. Nodes begin in phase 0 / class 0.
  void attach_run(std::uint32_t num_nodes);

  /// "buckets" | "heap" | "sync" — which event loop ran.
  void set_backend(std::string_view backend) { engine_.backend = backend; }

  /// Hot path: one call per send, before enqueueing. `bits` is the logical
  /// message size, `t` the send time (tick or round).
  void on_send(sim::NodeId from, std::uint64_t bits, sim::Time t) {
    PhaseAccum& ph = phases_[node_phase_[from]];
    ++ph.messages;
    ph.bits += bits;
    if (t < ph.first_send) ph.first_send = t;
    if (t > ph.last_send) ph.last_send = t;
    ph.message_bits.add(bits);
    ++class_messages_[node_class_[from]];
  }

  /// Asynchronous engine: called at every event pop with the queue size
  /// *after* the pop.
  void on_event_pop(std::size_t queue_size) {
    ++engine_.events_popped;
    engine_.queue_depth.add(queue_size);
  }

  /// Asynchronous engine: called after every push with the total queue
  /// size and the calendar-ring vs overflow-heap split.
  void on_queue_push(std::size_t size, std::size_t ring, std::size_t overflow) {
    if (size > engine_.queue_high_water) engine_.queue_high_water = size;
    if (ring > engine_.ring_high_water) engine_.ring_high_water = ring;
    if (overflow > engine_.overflow_high_water)
      engine_.overflow_high_water = overflow;
  }

  /// Synchronous engine: called once per stepped round with the number of
  /// active (stepped) nodes.
  void on_sync_round(std::size_t active) {
    ++engine_.rounds_stepped;
    engine_.round_active.add(active);
  }

  // ---- algorithm-facing surface (via NodeProbe) ------------------------
  /// Moves `node` into the named phase; no-op if already there. Phases are
  /// interned on first use, so marking is map-lookup cost — call it at
  /// phase *transitions*, not per message.
  void mark_phase(sim::NodeId node, std::string_view name);

  /// Assigns `node` to the named class ("root", "l1", ...).
  void mark_class(sim::NodeId node, std::string_view name);

  /// Bumps a named monotonic counter.
  void add_counter(std::string_view name, std::uint64_t n = 1);

  /// Applies one recorded mark (see DeferredMark); called by the sync
  /// engine's parallel reduction, on the coordinating thread, in sequential
  /// order.
  void replay(const DeferredMark& mark);

  /// Accumulates a completed PhaseTimer span under `name`.
  void add_timer(std::string_view name, double wall_seconds,
                 std::uint64_t sim_ticks);

  // ---- inspection / extraction -----------------------------------------
  std::uint64_t counter(std::string_view name) const;  ///< 0 when absent

  /// Builds the RunProfile from everything collected plus the run's
  /// Metrics totals. Per-class node counts and sent-per-node histograms
  /// use each node's class at the *end* of the run. Experiment identity
  /// fields (algorithm, graph, seed, ...) are left for the caller.
  RunProfile take_profile(const sim::RunResult& result) const;

 private:
  // PhaseProfile minus the name-independent finishing touches; kept flat
  // so on_send touches one cache line per phase.
  struct PhaseAccum {
    std::string name;
    std::uint64_t marks = 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    sim::Time first_send = sim::kNever;
    sim::Time last_send = 0;
    LogHistogram message_bits;
  };

  std::uint32_t intern_phase(std::string_view name);
  std::uint32_t intern_class(std::string_view name);

  std::vector<PhaseAccum> phases_;                // index = phase id
  std::vector<std::string> class_names_;          // index = class id
  std::vector<std::uint64_t> class_messages_;     // index = class id
  std::map<std::string, std::uint32_t, std::less<>> phase_ids_;
  std::map<std::string, std::uint32_t, std::less<>> class_ids_;
  std::vector<std::uint32_t> node_phase_;         // index = node
  std::vector<std::uint32_t> node_class_;         // index = node
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::vector<TimerProfile> timers_;              // creation order
  std::map<std::string, std::size_t, std::less<>> timer_ids_;
  EngineProfile engine_;
};

/// The per-node view algorithms get from Context::probe(). A plain
/// (pointer, node) pair: when no probe is attached every call is a single
/// branch on nullptr, which is the disabled-case overhead contract
/// bench_engine_micro holds to <= 2%.
class NodeProbe {
 public:
  NodeProbe() = default;
  NodeProbe(Probe* probe, sim::NodeId node) : probe_(probe), node_(node) {}

  /// True when a probe is attached — lets algorithms skip building
  /// expensive diagnostic values entirely.
  bool enabled() const { return probe_ != nullptr; }

  void phase(std::string_view name) {
    if (probe_) probe_->mark_phase(node_, name);
  }
  void node_class(std::string_view name) {
    if (probe_) probe_->mark_class(node_, name);
  }
  void count(std::string_view name, std::uint64_t n = 1) {
    if (probe_) probe_->add_counter(name, n);
  }

 private:
  Probe* probe_ = nullptr;
  sim::NodeId node_ = sim::kInvalidNode;
};

/// RAII wall-clock span. With a null probe the constructor and destructor
/// do nothing (the clock is not even read). Repeated spans under one name
/// accumulate: calls, total wall seconds, total sim ticks.
class PhaseTimer {
 public:
  PhaseTimer(Probe* probe, std::string_view name);
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Optional simulated-time span to record alongside the wall clock.
  void set_sim_span(std::uint64_t ticks) { sim_ticks_ = ticks; }

 private:
  Probe* probe_;
  std::string name_;
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t sim_ticks_ = 0;
};

}  // namespace rise::obs
