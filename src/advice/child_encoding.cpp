#include "advice/child_encoding.hpp"

#include <algorithm>

#include "advice/tree_advice_common.hpp"
#include "support/check.hpp"

namespace rise::advice {

namespace {

void write_optional_port(BitWriter& w, bool present, sim::Port port) {
  w.write_bit(present);
  if (present) w.write_gamma(port);
}

class ChildEncodingOracle final : public AdvisingOracle {
 public:
  ChildEncodingOracle(graph::NodeId root, unsigned arity)
      : root_(root), arity_(arity) {}

  void advise(const sim::Instance& instance, BitArena& out) const override {
    const auto& g = instance.graph();
    const PortTree pt = port_tree(instance, root_);

    std::vector<CenAdvice> fields(g.num_nodes());
    std::vector<std::pair<sim::Port, graph::NodeId>> kids;
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      if (pt.parent_port[u] != sim::kInvalidPort) {
        fields[u].has_parent = true;
        fields[u].parent = pt.parent_port[u];
      }
      // Order u's children by their port number at u, then lay them out as a
      // 1-based binary heap: child i's "next siblings" are 2i and 2i+1.
      const auto children = pt.tree.children(u);
      const auto ports = pt.child_ports(u);
      kids.clear();
      for (std::size_t i = 0; i < children.size(); ++i) {
        kids.push_back({ports[i], children[i]});
      }
      std::sort(kids.begin(), kids.end());
      if (!kids.empty()) {
        fields[u].has_first_child = true;
        fields[u].first_child = kids[0].first;
      }
      for (std::size_t i = 0; i < kids.size(); ++i) {
        const graph::NodeId c = kids[i].second;
        if (arity_ == 1) {
          // Ablation: linked list of siblings.
          if (i + 1 < kids.size()) {
            fields[c].has_next_a = true;
            fields[c].next_a = kids[i + 1].first;
          }
          continue;
        }
        const std::size_t heap = i + 1;
        if (2 * heap - 1 < kids.size()) {
          fields[c].has_next_a = true;
          fields[c].next_a = kids[2 * heap - 1].first;
        }
        if (2 * heap < kids.size()) {
          fields[c].has_next_b = true;
          fields[c].next_b = kids[2 * heap].first;
        }
      }
    }

    for (const CenAdvice& f : fields) {
      BitWriter& w = out.writer();
      write_optional_port(w, f.has_parent, f.parent);
      write_optional_port(w, f.has_first_child, f.first_child);
      write_optional_port(w, f.has_next_a, f.next_a);
      write_optional_port(w, f.has_next_b, f.next_b);
      out.close();
    }
  }

 private:
  graph::NodeId root_;
  unsigned arity_;
};

/// CEN wake-up: decoded advice + two flags per node.
class ChildEncodingKernel {
 public:
  struct State {
    CenAdvice advice;
    bool parent_notified = false;
    bool started = false;
  };
  using States = std::vector<State>;

  void reset(const sim::Instance& instance, sim::RunWorkspace* workspace) {
    states_ = &sim::acquire_kernel_state(workspace, own_);
    states_->clear();
    states_->resize(instance.num_nodes());
  }

  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause cause) {
    State& self = (*states_)[ctx.node()];
    obs::NodeProbe probe = ctx.probe();
    probe.phase("advice.forward");
    probe.count("advice.decodes");
    self.advice = decode_cen_advice(ctx.advice());
    if (cause == sim::WakeCause::kAdversary) {
      notify_parent(ctx, self);
      start_children(ctx, self);
    }
  }

  template <class Ctx>
  void on_message(Ctx& ctx, const sim::Incoming& in) {
    State& self = (*states_)[ctx.node()];
    switch (in.msg.type) {
      case kCenWakeChild: {
        // Our parent is clearly awake; answer with our next-sibling pair so
        // the parent can continue the binary dissemination.
        self.parent_notified = true;
        ctx.send(in.port, kCenNext, 8 + 2 * ctx.label_bits(),
                 (self.advice.has_next_a ? 1u : 0u) |
                     (self.advice.has_next_b ? 2u : 0u),
                 self.advice.has_next_a ? self.advice.next_a : 0,
                 self.advice.has_next_b ? self.advice.next_b : 0);
        start_children(ctx, self);
        break;
      }
      case kCenNext: {
        const std::uint64_t flags = in.words()[0];
        if (flags & 1u) {
          ctx.send(static_cast<sim::Port>(in.words()[1]), kCenWakeChild, 8);
        }
        if (flags & 2u) {
          ctx.send(static_cast<sim::Port>(in.words()[2]), kCenWakeChild, 8);
        }
        break;
      }
      case kCenWakeParent: {
        // A child woke independently; wake our own parent and the rest of
        // the family.
        notify_parent(ctx, self);
        start_children(ctx, self);
        break;
      }
      default:
        RISE_CHECK_MSG(false, "CEN: unexpected message type " << in.msg.type);
    }
  }

 private:
  template <class Ctx>
  void notify_parent(Ctx& ctx, State& self) {
    if (self.parent_notified || !self.advice.has_parent) return;
    self.parent_notified = true;
    ctx.send(self.advice.parent, kCenWakeParent, 8);
  }

  template <class Ctx>
  void start_children(Ctx& ctx, State& self) {
    if (self.started || !self.advice.has_first_child) {
      self.started = true;
      return;
    }
    self.started = true;
    ctx.send(self.advice.first_child, kCenWakeChild, 8);
  }

  States own_;
  States* states_ = nullptr;
};

}  // namespace

CenAdvice decode_cen_advice(BitView bits) {
  BitReader r(bits);
  CenAdvice a;
  auto read_optional = [&r](bool& flag, sim::Port& port) {
    flag = r.read_bit();
    if (flag) port = static_cast<sim::Port>(r.read_gamma());
  };
  read_optional(a.has_parent, a.parent);
  read_optional(a.has_first_child, a.first_child);
  read_optional(a.has_next_a, a.next_a);
  read_optional(a.has_next_b, a.next_b);
  return a;
}

std::unique_ptr<AdvisingOracle> child_encoding_oracle(graph::NodeId root,
                                                      unsigned arity) {
  RISE_CHECK(arity == 1 || arity == 2);
  return std::make_unique<ChildEncodingOracle>(root, arity);
}

sim::KernelRunner child_encoding_kernel() {
  return sim::make_kernel(ChildEncodingKernel{});
}

AdvisingScheme child_encoding_scheme(graph::NodeId root) {
  return {child_encoding_oracle(root), child_encoding_kernel()};
}

}  // namespace rise::advice
