// Discrete-event simulator for the asynchronous message-passing model.
//
// Semantics (Sec. 1.1–1.2 of the paper):
//   * Channels are error-free, bidirectional and FIFO; the engine clamps
//     per-directed-channel delivery times to be monotone so FIFO holds for
//     any delay policy.
//   * Message delays are chosen by an oblivious DelayPolicy with maximum
//     delay tau; one time unit = tau ticks.
//   * The adversary wakes nodes per a WakeSchedule; a message delivered to a
//     sleeping node wakes it and is processed upon awakening.
//   * Local computation is instantaneous: a callback may send any number of
//     messages at the current tick.
//
// The engine is deterministic given (instance, delay policy, schedule, seed).
// It runs through KernelRunner::run_async (sim/kernel.hpp); this header holds
// the model and its run limits.
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace rise::sim {

struct RunLimits {
  std::uint64_t max_events = 200'000'000;  ///< hard safety cap; exceeded => throws
};

}  // namespace rise::sim
