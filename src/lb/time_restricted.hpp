// The matching achievable side of Theorem 2: time-restricted KT1 strategies
// on the high-girth family G_k.
//
// Theorem 2 shows every (k+1)-time algorithm needs Omega(n^{1+1/k}) messages
// when rho_awk = 1. The trivial matching strategy is a 1-round broadcast by
// the initially-awake centers: on G_k it sends exactly
// sum_i deg(v_i) = n (n^{1/k} + 1) messages and wakes everyone — claim thm2
// (src/check/claims.cpp, nih:ttl:1 on kt1family:K:Q) gates that count from
// the achievable side. ttl_flood generalizes this to an r-time-unit budget
// (flooding with a hop-count TTL), interpolating between broadcast and full
// flooding.
#pragma once

#include <vector>

#include "sim/kernel.hpp"

namespace rise::lb {

inline constexpr std::uint32_t kTimedWake = 0x07F1;

/// Flooding with a TTL: adversary-woken nodes send TTL = ttl; receivers
/// rebroadcast once, with TTL-1, while that stays positive. ttl = 1 is the
/// centers broadcast: adversary-woken nodes send once and everyone else stays
/// silent, a 1-time-unit wake-up whenever the awake set is dominating. In
/// the header so nih_kernel can wrap it.
class TtlFloodKernel {
 public:
  explicit TtlFloodKernel(std::uint32_t ttl) : ttl_(ttl) {}

  struct State {
    bool done = false;
  };
  using States = std::vector<State>;

  void reset(const sim::Instance& instance, sim::RunWorkspace* workspace) {
    states_ = &sim::acquire_kernel_state(workspace, own_);
    states_->assign(instance.num_nodes(), State{});
  }

  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause cause) {
    if (cause == sim::WakeCause::kAdversary && ttl_ > 0) {
      send_all(ctx, ttl_, sim::kInvalidPort);
    }
  }

  template <class Ctx>
  void on_message(Ctx& ctx, const sim::Incoming& in) {
    const auto ttl = static_cast<std::uint32_t>(in.words()[0]);
    State& self = (*states_)[ctx.node()];
    if (self.done || ttl <= 1) return;
    self.done = true;
    send_all(ctx, ttl - 1, in.port);
  }

 private:
  template <class Ctx>
  static void send_all(Ctx& ctx, std::uint32_t ttl, sim::Port skip) {
    for (sim::Port p = 0; p < ctx.degree(); ++p) {
      if (p != skip) ctx.send(p, kTimedWake, 8 + ctx.label_bits(), ttl);
    }
  }

  std::uint32_t ttl_;
  States own_;
  States* states_ = nullptr;
};

sim::KernelRunner ttl_flood_kernel(std::uint32_t ttl);

}  // namespace rise::lb
