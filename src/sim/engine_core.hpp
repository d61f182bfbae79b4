// State and bookkeeping shared by the asynchronous and synchronous engines.
//
// Both engines own the same per-node machinery — one Process per node, an
// awake flag, a private RNG stream, wake/send/delivery metrics, CONGEST
// budget enforcement, and the common Context surface (identity, knowledge,
// advice, O(1) send-to-label) — and differ only in how they move time
// forward. EngineCore holds that machinery in flat, node-indexed vectors;
// the engines layer their event loop (bucketed timeline / round loop) on
// top.
//
// All state is graph-indexed: RNG streams live in a std::vector<Rng> seeded
// eagerly with mix_seed(seed, node) — the same per-node streams the engines
// previously created lazily through a hash map, so runs are bit-identical.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/probe.hpp"
#include "sim/instance.hpp"
#include "sim/metrics.hpp"
#include "sim/process.hpp"
#include "sim/trace.hpp"
#include "sim/workspace.hpp"
#include "support/check.hpp"

namespace rise::sim {

class EngineCore {
 public:
  /// `tau` is recorded in the metrics (the time-unit normalizer); the
  /// synchronous engine passes 1. `probe`, like `trace`, is a pure
  /// observer (may be null) and must outlive the run; the core sizes its
  /// per-node tables via attach_run. When `workspace` is non-null its
  /// vectors are borrowed for this run (reusing their capacity) and handed
  /// back on destruction; state is always re-initialized, so a dirty
  /// workspace yields bit-identical runs.
  EngineCore(const Instance& instance, Time tau, std::uint64_t seed,
             const ProcessFactory& factory, TraceSink* trace,
             obs::Probe* probe = nullptr, RunWorkspace* workspace = nullptr);

  /// Kernel-mode core: identical bookkeeping but no per-node Process objects
  /// are created (a kernel holds node state in flat vectors instead; see
  /// sim/kernel.hpp). process() must not be called on a core built this way.
  /// The workspace's recycled `processes` vector is left untouched so later
  /// Process-path runs still reuse it.
  EngineCore(const Instance& instance, Time tau, std::uint64_t seed,
             TraceSink* trace, obs::Probe* probe = nullptr,
             RunWorkspace* workspace = nullptr);

  ~EngineCore();

  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  const Instance& instance() const { return instance_; }
  TraceSink* trace() const { return trace_; }
  obs::Probe* probe() const { return probe_; }
  RunResult& result() { return result_; }
  RunResult take_result() { return std::move(result_); }

  Process& process(NodeId u) { return *processes_[u]; }
  bool is_awake(NodeId u) const { return awake_[u] != 0; }
  Rng& node_rng(NodeId u) { return rngs_[u]; }
  void set_output(NodeId u, std::uint64_t value) { result_.outputs[u] = value; }

  /// CONGEST enforcement plus send-side metrics (messages, bits,
  /// sent_per_node) and probe attribution. Call exactly once per send,
  /// before enqueueing; `t` is the send time (tick or round). Inline (with
  /// the two hooks below) because it runs once per simulated message.
  void account_send(NodeId from, const Message& msg, Time t) {
    check_congest(msg);
    ++result_.metrics.messages;
    result_.metrics.bits += msg.logical_bits();
    ++result_.metrics.sent_per_node[from];
    if (probe_ != nullptr) probe_->on_send(from, msg.logical_bits(), t);
  }

  void check_congest(const Message& msg) const {
    if (instance_.bandwidth() == Bandwidth::CONGEST) {
      RISE_CHECK_MSG(msg.logical_bits() <= instance_.congest_bit_budget(),
                     "CONGEST violation: message of "
                         << msg.logical_bits() << " bits exceeds budget of "
                         << instance_.congest_bit_budget());
    }
  }

  /// account_send for `count` already-checked sends totalling `bits`, with
  /// no probe attribution: the round-parallel reduction's shortcut when
  /// neither a trace nor a probe observes individual sends.
  void account_sends(NodeId from, std::uint32_t count, std::uint64_t bits) {
    result_.metrics.messages += count;
    result_.metrics.bits += bits;
    result_.metrics.sent_per_node[from] += count;
  }

  /// Delivery-side metrics (deliveries, received_per_node, last_delivery).
  void account_delivery(NodeId to, Time t, std::uint64_t count = 1) {
    result_.metrics.deliveries += count;
    result_.metrics.received_per_node[to] += static_cast<std::uint32_t>(count);
    result_.metrics.last_delivery = std::max(result_.metrics.last_delivery, t);
  }

  /// Marks u awake at time t: flags, wake_time, first/last-wake metrics and
  /// the trace callback. Returns false (a no-op) if u was already awake.
  /// Does NOT call Process::on_wake — the engines do, after their own
  /// engine-specific bookkeeping (e.g. the sync engine's local-round base).
  bool mark_awake(NodeId u, Time t, WakeCause cause) {
    if (!mark_awake_local(u, t)) return false;
    account_wake(t, u, cause);
    return true;
  }

  /// The node-local half of mark_awake: awake flag and wake_time only —
  /// both are per-node slots, so a parallel sync chunk may call this from a
  /// worker thread for nodes it owns. The shared half (metrics min/max and
  /// the trace event) is applied later via account_wake, in sequential
  /// order, by the coordinating thread.
  bool mark_awake_local(NodeId u, Time t) {
    if (awake_[u] != 0) return false;
    awake_[u] = 1;
    result_.wake_time[u] = t;
    return true;
  }

  /// The shared half of mark_awake: first/last-wake metrics and the trace
  /// callback. Coordinator-thread only.
  void account_wake(Time t, NodeId u, WakeCause cause) {
    result_.metrics.first_wake = std::min(result_.metrics.first_wake, t);
    result_.metrics.last_wake = std::max(result_.metrics.last_wake, t);
    if (trace_ != nullptr) trace_->on_node_wake(t, u, cause);
  }

 private:
  /// Sizes / re-initializes everything except processes_ (shared by both
  /// constructors).
  void init_run_state(Time tau, std::uint64_t seed);

  const Instance& instance_;
  TraceSink* trace_;
  obs::Probe* probe_;
  RunWorkspace* workspace_;
  bool uses_processes_ = true;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Rng> rngs_;
  std::vector<std::uint8_t> awake_;
  RunResult result_;
};

/// The Context surface both engines share. Engine subclasses add the
/// time-model-specific pieces: send(), now(), local_round(), request_tick().
class CoreContext : public Context {
 public:
  explicit CoreContext(EngineCore& core)
      : core_(core), instance_(core.instance()) {}

  void attach(NodeId node) { node_ = node; }
  NodeId node() const { return node_; }

  Label my_label() const override { return instance_.label(node_); }
  NodeId degree() const override { return instance_.graph().degree(node_); }
  Knowledge knowledge() const override { return instance_.knowledge(); }
  Bandwidth bandwidth() const override { return instance_.bandwidth(); }
  unsigned label_bits() const override { return instance_.label_bits(); }
  std::uint64_t n_upper_bound() const override {
    return std::uint64_t{1} << instance_.label_bits();
  }

  std::span<const Label> neighbor_labels() const override;

  /// KT1 addressing via the instance's per-node label→port index: O(1)
  /// rather than a scan over the neighbor list.
  void send_to_label(Label neighbor, Message msg) override;

  Rng& rng() override { return core_.node_rng(node_); }
  obs::NodeProbe probe() override { return {core_.probe(), node_}; }
  const BitString& advice() const override { return instance_.advice(node_); }
  void set_output(std::uint64_t value) override {
    core_.set_output(node_, value);
  }

 protected:
  EngineCore& core_;
  const Instance& instance_;
  NodeId node_ = kInvalidNode;
};

}  // namespace rise::sim
