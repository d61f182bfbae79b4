// What an algorithm sees of the model: the node context.
//
// Every algorithm is a kernel (sim/kernel.hpp) whose hooks the engine
// calls with the node's context:
//   * on_wake     — exactly once, when the node transitions from asleep to
//                   awake (either by the adversary or by a first message);
//   * on_message  — (asynchronous engine) for every delivered message;
//   * on_round    — (synchronous engine, optional) once per round for every
//                   node that has work: a non-empty inbox, a fresh wake-up,
//                   or a requested tick. A kernel without on_round gets each
//                   inbox message passed to on_message, in order
//                   (deliver_round below), so a message-driven kernel runs
//                   unchanged under both engines.
//
// The context exposes exactly the knowledge the model grants: the node's own
// ID, its degree and ports, its neighbors' IDs only under KT1, its advice
// string, private randomness, and (synchronous engine only) the node's
// *local* round counter — there is no global clock (paper footnote 4).
// Each engine has one concrete, final context type deriving from
// NodeContext below, with no vtable, and the hooks are templates over that
// type, so every call a kernel makes is direct and inlines into the engine
// loop.
//
// Dropped-message semantics: in the sleeping model
// (SyncRunLimits::sleeping_model; DESIGN.md §13) a message arriving at a
// node during one of its declared-sleep rounds (sleep_until) is dropped. The
// *send* is still charged (metrics.messages, metrics.bits, sent_per_node —
// the sender did the work), but no delivery is recorded: the drop is counted
// in Metrics::sleep_dropped, and the trace shows an on_send with no matching
// on_deliver. Every other run delivers every message it sends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "obs/probe.hpp"
#include "sim/engine_core.hpp"
#include "sim/instance.hpp"
#include "sim/message.hpp"
#include "sim/types.hpp"
#include "support/bitio.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rise::sim {

/// The node surface both engines' contexts share. `Derived` is the engine's
/// final context type and supplies the time-model pieces:
///   * post(Port, const Message&, fill) — sends over a port (both KT0 and
///     KT1): the engine makes room for msg.size words in its own storage
///     and calls fill(out) to write them there;
///   * now() — current time (ticks in async; round number in sync);
///   * local_round() — synchronous engine: rounds elapsed since this node
///     woke (1 in the wake round); asynchronous engine: 0;
///   * request_tick() — synchronous engine: step this node again next round
///     even without incoming messages (algorithms with countdowns);
///   * sleep_until(round) — sleeping model (synchronous engine with
///     SyncRunLimits::sleeping_model): the node is asleep from the next
///     round until the start of `round`, when it is stepped again with an
///     empty inbox. While asleep it is never stepped, pays no awake cost,
///     and every message arriving at it is dropped (see the header
///     comment). `round` must be strictly in the future, and a node may not
///     re-declare sleep while a declaration is still pending.
/// The asynchronous context's request_tick and sleep_until throw
/// CheckError: it has no rounds.
template <class Derived>
class NodeContext {
 public:
  /// Points the context at the node the engine is about to run a hook for.
  void attach(NodeId node) { node_ = node; }

  /// The node's dense index: kernels key their per-node state by it. Not
  /// protocol-visible (that is my_label).
  NodeId node() const { return node_; }

  /// The node's protocol-visible ID.
  Label my_label() const { return instance_.label(node_); }

  NodeId degree() const { return instance_.graph().degree(node_); }
  Knowledge knowledge() const { return instance_.knowledge(); }
  Bandwidth bandwidth() const { return instance_.bandwidth(); }

  /// Bits sufficient to encode any ID — the nodes' "constant-factor upper
  /// bound on log n" from Sec. 1.1.
  unsigned label_bits() const { return instance_.label_bits(); }

  /// A polynomial upper bound on n derived from the ID range.
  std::uint64_t n_upper_bound() const {
    return std::uint64_t{1} << instance_.label_bits();
  }

  /// KT1 only: neighbor IDs indexed by port. Calling this under KT0 is a
  /// model violation and throws.
  std::span<const Label> neighbor_labels() const {
    RISE_CHECK_MSG(instance_.knowledge() == Knowledge::KT1,
                   "neighbor IDs are not available under KT0");
    return instance_.neighbor_labels_by_port(node_);
  }

  /// Sends a message of type `type` over port p. `bits` is its logical
  /// size (0: the default 8 + 64 * words), and `words...` its payload: each
  /// one word, a span of words or a word source (sim/message.hpp), written
  /// straight into the engine's storage.
  template <class... Words>
  void send(Port p, std::uint32_t type, std::uint64_t bits,
            const Words&... words) {
    const Message msg(type, bits, (std::size_t{0} + ... + word_count(words)));
    self().post(p, msg, [&]([[maybe_unused]] std::uint64_t* out) {
      ((out = write_words(out, words)), ...);
    });
  }

  /// KT1 convenience: send to the neighbor with the given ID, found through
  /// the instance's per-node label→port index in O(1).
  template <class... Words>
  void send_to_label(Label neighbor, std::uint32_t type, std::uint64_t bits,
                     const Words&... words) {
    send(instance_.port_of_label(node_, neighbor), type, bits, words...);
  }

  /// Sends the same message over every incident port.
  template <class... Words>
  void broadcast(std::uint32_t type, std::uint64_t bits,
                 const Words&... words) {
    for (Port p = 0; p < degree(); ++p) send(p, type, bits, words...);
  }

  /// Private unbiased randomness (deterministic per run seed and node).
  Rng& rng() { return core_.node_rng(node_); }

  /// The node's advice string (empty when the instance has no oracle).
  BitView advice() const { return instance_.advice(node_); }

  /// Records this node's output value (used by the NIH problem).
  void set_output(std::uint64_t value) { core_.set_output(node_, value); }

  /// Observability handle for this node: phase / class marks and named
  /// counters (src/obs). Null (every call a no-op) unless the run was
  /// started with a Probe attached; marking is observation only and never
  /// changes the run.
  obs::NodeProbe probe() const { return {core_.probe(), node_}; }

 protected:
  explicit NodeContext(EngineCore& core)
      : core_(core), instance_(core.instance()) {}

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  EngineCore& core_;
  const Instance& instance_;
  NodeId node_ = kInvalidNode;
};

/// Hands one synchronous round's inbox to a kernel: its on_round when it
/// has one, otherwise on_message for each message in inbox order.
template <class Kernel, class Ctx>
void deliver_round(Kernel& kernel, Ctx& ctx, std::span<const Incoming> inbox) {
  if constexpr (requires { kernel.on_round(ctx, inbox); }) {
    kernel.on_round(ctx, inbox);
  } else {
    for (const Incoming& in : inbox) kernel.on_message(ctx, in);
  }
}

}  // namespace rise::sim
