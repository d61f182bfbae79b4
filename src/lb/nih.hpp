// The Needles-in-Haystack (NIH) problem and the executable Lemma-1
// reduction.
//
// NIH (Sec. 2): on a lower-bound family instance, every center v_i must
// output the port leading to its crucial neighbor w_i (KT0) or w_i's ID
// (KT1). Lemma 1 turns any wake-up algorithm A into an NIH algorithm B at
// the cost of +n messages and +1 time unit: each degree-1 node (exactly the
// W nodes in both families) answers its first incoming message with a
// special response, from which the center reads off the port/ID.
//
// NihKernel wraps an arbitrary wake-up kernel in exactly that
// transformation, making the reduction itself a tested artifact.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "lb/lower_bound_graphs.hpp"
#include "sim/kernel.hpp"
#include "sim/metrics.hpp"

namespace rise::lb {

inline constexpr std::uint32_t kNihResponse = 0x017E;

/// Lemma 1 over any kernel `Inner`: response messages are intercepted
/// before the inner algorithm sees them, everything else is forwarded.
template <class Inner>
class NihKernel {
 public:
  explicit NihKernel(Inner inner) : inner_(std::move(inner)) {}

  /// Its own slot type, never shared with the inner kernel's state.
  struct State {
    bool responded = false;
  };
  using States = std::vector<State>;

  void reset(const sim::Instance& instance, sim::RunWorkspace* workspace) {
    states_ = &sim::acquire_kernel_state(workspace, own_);
    states_->assign(instance.num_nodes(), State{});
    inner_.reset(instance, workspace);
  }

  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause cause) {
    inner_.on_wake(ctx, cause);
  }

  template <class Ctx>
  void on_message(Ctx& ctx, const sim::Incoming& in) {
    if (!intercept(ctx, in)) inner_.on_message(ctx, in);
  }

  /// Intercepts the whole round before the inner kernel runs, then hands it
  /// the rest through sim::deliver_round. Chunks of a round-parallel step
  /// call this on several threads, so the filtered inbox lives in a
  /// thread_local scratch, not in the kernel.
  template <class Ctx>
  void on_round(Ctx& ctx, std::span<const sim::Incoming> inbox) {
    bool any_response = false;
    for (const sim::Incoming& in : inbox) any_response |= intercept(ctx, in);
    if (!any_response) {
      sim::deliver_round(inner_, ctx, inbox);
      return;
    }
    thread_local std::vector<sim::Incoming> forwarded;
    forwarded.clear();
    for (const sim::Incoming& in : inbox) {
      if (in.msg.type != kNihResponse) forwarded.push_back(in);
    }
    sim::deliver_round(inner_, ctx, forwarded);
  }

 private:
  /// Records a response's answer (port under KT0, neighbor ID under KT1)
  /// and returns true: responses are outside the inner algorithm. Any other
  /// message makes a degree-1 node answer, once, and returns false.
  template <class Ctx>
  bool intercept(Ctx& ctx, const sim::Incoming& in) {
    if (in.msg.type == kNihResponse) {
      if (ctx.knowledge() == sim::Knowledge::KT0) {
        ctx.set_output(in.port);
      } else {
        ctx.set_output(ctx.neighbor_labels()[in.port]);
      }
      return true;
    }
    State& self = (*states_)[ctx.node()];
    if (ctx.degree() == 1 && !self.responded) {
      self.responded = true;
      ctx.send(in.port, kNihResponse, 8);
    }
    return false;
  }

  Inner inner_;
  States own_;
  States* states_ = nullptr;
};

/// Lemma 1: wrap a wake-up kernel into an NIH solver.
template <class Inner>
sim::KernelRunner nih_kernel(Inner inner) {
  return sim::make_kernel(NihKernel<Inner>(std::move(inner)));
}

/// Expected NIH outputs for every center (port of w_i under KT0, ID of w_i
/// under KT1); indexed by center index i in [0, n).
std::vector<std::uint64_t> nih_expected_outputs(
    const sim::Instance& instance, const LowerBoundFamily& family);

/// Number of centers whose recorded output matches the expectation.
graph::NodeId nih_correct_count(const sim::RunResult& result,
                                const sim::Instance& instance,
                                const LowerBoundFamily& family);

/// The first center v_i of an instance with the family layout
/// (has_family_layout) whose output is not its NIH answer, or
/// graph::kInvalidNode when every center answered.
graph::NodeId first_wrong_center(const sim::RunResult& result,
                                 const sim::Instance& instance);

}  // namespace rise::lb
