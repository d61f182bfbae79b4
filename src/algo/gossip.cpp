#include "algo/gossip.hpp"

namespace rise::algo {

namespace {

/// Push gossip keeps no per-node state: the round budget is shared config
/// and the local round counter comes from the context.
class PushGossipKernel {
 public:
  explicit PushGossipKernel(std::uint64_t round_budget)
      : budget_(round_budget) {}

  void reset(const sim::Instance&, sim::RunWorkspace*) {}

  template <class Ctx>
  void on_wake(Ctx&, sim::WakeCause) {}

  template <class Ctx>
  void on_message(Ctx&, const sim::Incoming&) {}

  template <class Ctx>
  void on_round(Ctx& ctx, std::span<const sim::Incoming>) {
    if (ctx.local_round() > budget_ || ctx.degree() == 0) return;
    obs::NodeProbe probe = ctx.probe();
    probe.phase("gossip.push");
    probe.count("gossip.pushes");
    const sim::Port p =
        static_cast<sim::Port>(ctx.rng().uniform(ctx.degree()));
    ctx.send(p, kGossipPush, 8);
    ctx.request_tick();
  }

 private:
  std::uint64_t budget_;
};

}  // namespace

sim::KernelRunner push_gossip_kernel(std::uint64_t round_budget) {
  return sim::make_kernel(PushGossipKernel(round_budget));
}

}  // namespace rise::algo
