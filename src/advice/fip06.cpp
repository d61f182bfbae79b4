#include "advice/fip06.hpp"

#include <algorithm>

#include "advice/tree_advice_common.hpp"
#include "support/check.hpp"

namespace rise::advice {

PortTree port_tree(const sim::Instance& instance, graph::NodeId root) {
  const auto& g = instance.graph();
  PortTree pt{graph::bfs_tree(g, root), {}, {}};
  RISE_CHECK_MSG(pt.tree.spanning(),
                 "tree advising schemes require a connected graph");
  pt.parent_port.assign(g.num_nodes(), sim::kInvalidPort);
  pt.child_port.resize(pt.tree.child_list.size());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    // u's row and u's children are both in ascending node order.
    const auto nb = g.neighbors(u);
    const auto kids = pt.tree.children(u);
    sim::Port* ports = pt.child_port.data() + pt.tree.child_offsets[u];
    std::size_t next = 0;
    for (std::uint32_t slot = 0; slot < nb.size() && next < kids.size();
         ++slot) {
      if (nb[slot] != kids[next]) continue;
      const sim::Port p = instance.port_of_slot(u, slot);
      ports[next++] = p;
      pt.parent_port[nb[slot]] = instance.reverse_port(u, p);
    }
  }
  return pt;
}

void PortTree::tree_ports(graph::NodeId u, std::vector<sim::Port>& out) const {
  out.clear();
  if (parent_port[u] != sim::kInvalidPort) out.push_back(parent_port[u]);
  const auto kids = child_ports(u);
  out.insert(out.end(), kids.begin(), kids.end());
}

void encode_port_set(BitWriter& w, std::span<const sim::Port> ports,
                     std::uint32_t degree) {
  const unsigned width = std::max(1u, bit_width_for(degree));
  // The list encoding costs its format bit, gamma(count) and count ports.
  const std::size_t list_bits =
      1 + gamma_bits(ports.size()) + ports.size() * width;
  if (list_bits <= 1 + std::size_t{degree}) {
    w.write_bit(false);
    w.write_gamma(ports.size());
    for (sim::Port p : ports) w.write_bits(p, width);
    return;
  }
  w.write_bit(true);
  // The bitmap a word at a time: word c holds ports [64c, 64c + 64).
  for (std::uint32_t lo = 0; lo < degree; lo += 64) {
    std::uint64_t word = 0;
    for (sim::Port p : ports) {
      if (p >= lo && p - lo < 64) word |= std::uint64_t{1} << (p - lo);
    }
    w.write_bits(word, std::min(64u, degree - lo));
  }
}

namespace {

class Fip06Oracle final : public AdvisingOracle {
 public:
  explicit Fip06Oracle(graph::NodeId root) : root_(root) {}

  void advise(const sim::Instance& instance, BitArena& out) const override {
    const auto& g = instance.graph();
    const PortTree pt = port_tree(instance, root_);
    std::vector<sim::Port> ports;
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      pt.tree_ports(u, ports);
      encode_port_set(out.writer(), ports, g.degree(u));
      out.close();
    }
  }

 private:
  graph::NodeId root_;
};

/// Tree flooding: one done-flag per node.
class Fip06Kernel {
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
    if (cause == sim::WakeCause::kAdversary) {
      propagate(ctx, sim::kInvalidPort);
    }
    // Message-woken nodes propagate from on_message, where the arrival port
    // is known.
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
    probe.phase("advice.forward");
    probe.count("advice.decodes");
    BitReader r(ctx.advice());
    for_each_port(r, ctx.degree(), [&](sim::Port p) {
      if (p != skip) ctx.send(p, kTreeWake, 8);
    });
  }

  States own_;
  States* states_ = nullptr;
};

}  // namespace

std::unique_ptr<AdvisingOracle> fip06_oracle(graph::NodeId root) {
  return std::make_unique<Fip06Oracle>(root);
}

sim::KernelRunner fip06_kernel() { return sim::make_kernel(Fip06Kernel{}); }

AdvisingScheme fip06_scheme(graph::NodeId root) {
  return {fip06_oracle(root), fip06_kernel()};
}

}  // namespace rise::advice
