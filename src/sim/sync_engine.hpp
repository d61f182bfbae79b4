// Lock-step synchronous engine.
//
// Semantics (Sec. 3.2 of the paper): computation proceeds in rounds; every
// message sent in round r is delivered at the start of round r+1. The
// adversary wakes nodes at round boundaries; a message delivered to a
// sleeping node wakes it. Nodes have NO global clock — a process only sees
// its local round counter (rounds since its own wake-up), per footnote 4.
//
// A node is stepped (on_round) in a round iff it has a non-empty inbox, it
// just woke up, or it called ctx.request_tick() in the previous round;
// quiescence (no inbox, no pending wakes, no tick requests) terminates the
// run. This keeps simulated complexity proportional to actual activity.
//
// Sleeping model (SyncRunLimits::sleeping_model): nodes may additionally
// declare themselves asleep with ctx.sleep_until(r) — they are not
// stepped again before round r, pay no awake cost, and messages arriving
// during the nap are dropped. This mode deliberately grants nodes the
// synchronized global clock the sleeping-model literature assumes
// (ctx.now() as a round number), a documented divergence from the
// paper's footnote-4 no-global-clock stance; see DESIGN.md §13.
//
// The engine runs through KernelRunner::run_sync (sim/kernel.hpp); this
// header holds the model and its run limits.
#pragma once

#include <cstdint>

namespace rise::sim {

struct SyncRunLimits {
  std::uint64_t max_rounds = 10'000'000;
  std::uint64_t max_messages = 500'000'000;

  /// Enables the sleeping model (DESIGN.md §13): ctx.sleep_until
  /// becomes legal, declared-asleep nodes are never stepped, and messages
  /// arriving at them are dropped (counted in Metrics::sleep_dropped).
  /// Off, the engine reproduces the historical lock-step semantics (and
  /// traces) bit for bit.
  bool sleeping_model = false;
};

}  // namespace rise::sim
