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

/// Flooding is stateless: a node broadcasts once, from on_wake. In the
/// header so wrappers (lb::NihKernel) can hold it.
struct FloodingKernel {
  void reset(const sim::Instance&, sim::RunWorkspace*) {}

  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause) {
    obs::NodeProbe probe = ctx.probe();
    probe.phase("flood");
    probe.count("flood.broadcasts");
    // A single O(1)-bit wake-up signal on every port.
    ctx.broadcast(kFloodWake, 8);
  }

  template <class Ctx>
  void on_message(Ctx&, const sim::Incoming&) {
    // Receiving a message already woke us (triggering on_wake); nothing else
    // to do.
  }
};

/// Flooding as a flat kernel: allocation-free in steady state, which makes
/// it the million-node workload.
sim::KernelRunner flooding_kernel();

}  // namespace rise::algo
