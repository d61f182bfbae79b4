#include "algo/flooding.hpp"

namespace rise::algo {

namespace {

/// Flooding is stateless: a node broadcasts once, from on_wake.
struct FloodingKernel {
  void reset(const sim::Instance&, sim::RunWorkspace*) {}

  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause) {
    obs::NodeProbe probe = ctx.probe();
    probe.phase("flood");
    probe.count("flood.broadcasts");
    // A single O(1)-bit wake-up signal on every port.
    ctx.broadcast(sim::make_message(kFloodWake, {}, 8));
  }

  template <class Ctx>
  void on_message(Ctx&, const sim::Incoming&) {
    // Receiving a message already woke us (triggering on_wake); nothing else
    // to do.
  }

  template <class Ctx>
  void on_round(Ctx& ctx, std::span<const sim::Incoming> inbox) {
    for (const sim::Incoming& in : inbox) on_message(ctx, in);
  }
};

}  // namespace

sim::KernelRunner flooding_kernel() {
  return sim::make_kernel(FloodingKernel{});
}

}  // namespace rise::algo
