// What an algorithm sees of the model: the node Context.
//
// Every algorithm is a kernel (sim/kernel.hpp) whose hooks the engine
// calls with the node's context:
//   * on_wake     — exactly once, when the node transitions from asleep to
//                   awake (either by the adversary or by a first message);
//   * on_message  — (asynchronous engine) for every delivered message;
//   * on_round    — (synchronous engine) once per round for every node that
//                   has work: a non-empty inbox, a fresh wake-up, or a
//                   requested tick. Message-driven kernels forward each
//                   inbox message to on_message, so they run unchanged under
//                   both engines.
//
// The Context exposes exactly the knowledge the model grants: the node's own
// ID, its degree and ports, its neighbors' IDs only under KT1, its advice
// string, private randomness, and (synchronous engine only) the node's
// *local* round counter — there is no global clock (paper footnote 4).
//
// Dropped-message semantics: when RunLimits::max_time truncates a run, a
// message whose delivery time falls past the horizon is silently dropped by
// the asynchronous engine. The *send* is still charged (metrics.messages,
// metrics.bits, sent_per_node — the sender did the work), but no delivery
// is recorded, so metrics.deliveries <= metrics.messages always holds, with
// equality exactly when no delivery was truncated. Traces show an on_send
// with no matching on_deliver for dropped messages.
//
// The sleeping model (SyncRunLimits::sleeping_model; DESIGN.md §13) reuses
// the same send-charged/no-delivery convention: a message arriving at a node
// during one of its declared-sleep rounds (Context::sleep_until) is dropped,
// counted in Metrics::sleep_dropped, and never traced as delivered.
#pragma once

#include <cstdint>
#include <span>

#include "obs/probe.hpp"
#include "sim/instance.hpp"
#include "sim/message.hpp"
#include "sim/types.hpp"
#include "support/bitio.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rise::sim {

inline constexpr std::uint64_t kNoOutput = static_cast<std::uint64_t>(-1);

/// Why a node woke up. A real node observes this: an adversary-woken node
/// starts with no pending message, while a message-woken node's first action
/// is processing that message. Several of the paper's algorithms branch on it
/// (e.g. only adversary-woken nodes start a DFS token in Theorem 3).
enum class WakeCause : std::uint8_t { kAdversary, kMessage };

class Context {
 public:
  virtual ~Context() = default;

  /// The node's protocol-visible ID.
  virtual Label my_label() const = 0;

  virtual NodeId degree() const = 0;
  virtual Knowledge knowledge() const = 0;
  virtual Bandwidth bandwidth() const = 0;

  /// Bits sufficient to encode any ID — the nodes' "constant-factor upper
  /// bound on log n" from Sec. 1.1.
  virtual unsigned label_bits() const = 0;

  /// A polynomial upper bound on n derived from the ID range.
  virtual std::uint64_t n_upper_bound() const = 0;

  /// KT1 only: neighbor IDs indexed by port. Calling this under KT0 is a
  /// model violation and throws.
  virtual std::span<const Label> neighbor_labels() const = 0;

  /// Sends over a port (both KT0 and KT1).
  virtual void send(Port p, Message msg) = 0;

  /// KT1 convenience: send to the neighbor with the given ID.
  virtual void send_to_label(Label neighbor, Message msg) = 0;

  /// Sends a copy of msg over every incident port.
  void broadcast(const Message& msg) {
    for (Port p = 0; p < degree(); ++p) send(p, msg);
  }

  /// Current time (ticks in async; round number in sync).
  virtual Time now() const = 0;

  /// Synchronous engine: rounds elapsed since this node woke (1 in the wake
  /// round). Asynchronous engine: 0.
  virtual std::uint64_t local_round() const = 0;

  /// Synchronous engine: ask to be stepped again next round even without
  /// incoming messages (used by algorithms with internal countdowns).
  virtual void request_tick() = 0;

  /// Sleeping model (synchronous engine with SyncRunLimits::sleeping_model):
  /// declare this node asleep from the next round until the start of round
  /// `round` (exclusive of `round` itself — the node is stepped again, with
  /// an empty inbox, at round `round`). While asleep the node is never
  /// stepped, pays no awake cost, and every message arriving at it is
  /// dropped (see the header comment). `round` must be strictly in the
  /// future, and a node may not re-declare sleep while a declaration is
  /// still pending. The default throws: fakes and the asynchronous engine
  /// have no sleeping rounds.
  virtual void sleep_until(Time round);

  /// Private unbiased randomness (deterministic per run seed and node).
  virtual Rng& rng() = 0;

  /// The node's advice string (empty when the instance has no oracle).
  virtual const BitString& advice() const = 0;

  /// Records this node's output value (used by the NIH problem).
  virtual void set_output(std::uint64_t value) = 0;

  /// Observability handle for this node: phase / class marks and named
  /// counters (src/obs). Null (every call a no-op) unless the run was
  /// started with a Probe attached; marking is observation only and never
  /// changes the run. The default suits Context fakes in tests.
  virtual obs::NodeProbe probe() { return {}; }
};

inline void Context::sleep_until(Time /*round*/) {
  RISE_CHECK_MSG(false,
                 "sleep_until requires the synchronous engine with "
                 "SyncRunLimits::sleeping_model enabled");
}

}  // namespace rise::sim
