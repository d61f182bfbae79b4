// The standard flooding algorithm — the message-inefficient baseline the
// paper measures everything against.
//
// On waking (by the adversary or by a first message), a node sends one
// wake-up message over every incident port, then stays silent. Flooding
// wakes every node in exactly rho_awk time units and sends Theta(m) messages
// (at most one per directed edge). It needs no initial knowledge, so it runs
// under KT0 and KT1, asynchronous and synchronous, LOCAL and CONGEST.
#pragma once

#include "sim/kernel.hpp"

namespace rise::algo {

/// Message type tag used by flooding wake-up messages.
inline constexpr std::uint32_t kFloodWake = 0x0F10;

/// Flooding as a flat kernel: allocation-free in steady state, which makes
/// it the million-node workload.
sim::KernelRunner flooding_kernel();

}  // namespace rise::algo
