#include "advice/sqrt_threshold.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "advice/fip06.hpp"
#include "advice/tree_advice_common.hpp"
#include "support/check.hpp"

namespace rise::advice {

namespace {

class SqrtThresholdOracle final : public AdvisingOracle {
 public:
  SqrtThresholdOracle(graph::NodeId root, double threshold)
      : root_(root), threshold_(threshold) {}

  void advise(const sim::Instance& instance, BitArena& out) const override {
    const auto& g = instance.graph();
    const PortTree pt = port_tree(instance, root_);
    const double threshold =
        threshold_ > 0.0 ? threshold_
                         : std::sqrt(static_cast<double>(g.num_nodes()));
    std::vector<sim::Port> ports;
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      pt.tree_ports(u, ports);
      BitWriter& w = out.writer();
      if (static_cast<double>(ports.size()) > threshold) {
        w.write_bit(true);  // high degree tree node: broadcast everything
      } else {
        w.write_bit(false);
        const unsigned width = std::max(1u, bit_width_for(g.degree(u)));
        w.write_gamma(ports.size());
        for (sim::Port p : ports) w.write_bits(p, width);
      }
      out.close();
    }
  }

 private:
  graph::NodeId root_;
  double threshold_;
};

/// Threshold flooding: one done-flag per node.
class SqrtThresholdKernel {
 public:
  struct State {
    bool done = false;
  };
  using States = std::vector<State>;

  void reset(const sim::Instance& instance, sim::RunWorkspace* workspace) {
    states_ = &sim::acquire_kernel_state(workspace, own_);
    states_->clear();
    states_->resize(instance.num_nodes());
  }

  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause cause) {
    if (cause == sim::WakeCause::kAdversary) propagate(ctx, sim::kInvalidPort);
  }

  template <class Ctx>
  void on_message(Ctx& ctx, const sim::Incoming& in) {
    propagate(ctx, in.port);
  }

 private:
  template <class Ctx>
  void propagate(Ctx& ctx, sim::Port skip) {
    State& self = (*states_)[ctx.node()];
    if (self.done) return;
    self.done = true;
    obs::NodeProbe probe = ctx.probe();
    probe.count("advice.decodes");
    BitReader r(ctx.advice());
    if (r.read_bit()) {
      probe.phase("advice.broadcast");
      probe.node_class("high_degree");
      for (sim::Port p = 0; p < ctx.degree(); ++p) {
        if (p != skip) ctx.send(p, kTreeWake, 8);
      }
      return;
    }
    probe.phase("advice.forward");
    const unsigned width = std::max(1u, bit_width_for(ctx.degree()));
    const std::uint64_t count = r.read_gamma();
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto p = static_cast<sim::Port>(r.read_bits(width));
      if (p != skip) ctx.send(p, kTreeWake, 8);
    }
  }

  States own_;
  States* states_ = nullptr;
};

}  // namespace

std::unique_ptr<AdvisingOracle> sqrt_threshold_oracle(graph::NodeId root,
                                                      double threshold) {
  return std::make_unique<SqrtThresholdOracle>(root, threshold);
}

sim::KernelRunner sqrt_threshold_kernel() {
  return sim::make_kernel(SqrtThresholdKernel{});
}

AdvisingScheme sqrt_threshold_scheme(graph::NodeId root) {
  return {sqrt_threshold_oracle(root), sqrt_threshold_kernel()};
}

}  // namespace rise::advice
