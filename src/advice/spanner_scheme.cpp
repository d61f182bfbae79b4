#include "advice/spanner_scheme.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "graph/spanner.hpp"
#include "support/bitio.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace rise::advice {

namespace {

struct NextPair {
  bool has_a = false;
  sim::Port a = sim::kInvalidPort;
  bool has_b = false;
  sim::Port b = sim::kInvalidPort;
};

struct NodeAdvice {
  bool has_first = false;
  sim::Port first = sim::kInvalidPort;
  // Keyed by the port (at this node) carrying the spanner edge; the value is
  // this node's next-sibling pair in the *neighbor's* heap (ports at the
  // neighbor).
  std::map<sim::Port, NextPair> records;
};

BitString encode_node_advice(const NodeAdvice& a) {
  BitWriter w;
  w.write_gamma(a.records.size());
  w.write_bit(a.has_first);
  if (a.has_first) w.write_gamma(a.first);
  for (const auto& [key, next] : a.records) {
    w.write_gamma(key);
    w.write_bit(next.has_a);
    if (next.has_a) w.write_gamma(next.a);
    w.write_bit(next.has_b);
    if (next.has_b) w.write_gamma(next.b);
  }
  return w.take();
}

NodeAdvice decode_node_advice(const BitString& bits) {
  NodeAdvice a;
  BitReader r(bits);
  const std::uint64_t count = r.read_gamma();
  a.has_first = r.read_bit();
  if (a.has_first) a.first = static_cast<sim::Port>(r.read_gamma());
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto key = static_cast<sim::Port>(r.read_gamma());
    NextPair next;
    next.has_a = r.read_bit();
    if (next.has_a) next.a = static_cast<sim::Port>(r.read_gamma());
    next.has_b = r.read_bit();
    if (next.has_b) next.b = static_cast<sim::Port>(r.read_gamma());
    a.records[key] = next;
  }
  return a;
}

class SpannerOracle final : public AdvisingOracle {
 public:
  /// k == 0 means "choose k = ceil(log2 n)" (Corollary 2).
  explicit SpannerOracle(unsigned k) : k_(k) {}

  std::vector<BitString> advise(const sim::Instance& instance) const override {
    const auto& g = instance.graph();
    unsigned k = k_;
    if (k == 0) {
      k = std::max<unsigned>(
          2, rise::floor_log2(std::max<std::uint64_t>(2, g.num_nodes())) + 1);
    }
    const graph::Graph spanner = graph::greedy_spanner(g, k);

    std::vector<NodeAdvice> advice(g.num_nodes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      // v's spanner neighbors ordered by port at v, laid out as a 1-based
      // binary heap.
      std::vector<std::pair<sim::Port, graph::NodeId>> heap;
      for (graph::NodeId u : spanner.neighbors(v)) {
        heap.push_back({instance.neighbor_to_port(v, u), u});
      }
      std::sort(heap.begin(), heap.end());
      if (heap.empty()) continue;
      advice[v].has_first = true;
      advice[v].first = heap[0].first;
      for (std::size_t i = 0; i < heap.size(); ++i) {
        const graph::NodeId w = heap[i].second;
        const sim::Port key_at_w = instance.neighbor_to_port(w, v);
        NextPair next;
        const std::size_t h = i + 1;
        if (2 * h - 1 < heap.size()) {
          next.has_a = true;
          next.a = heap[2 * h - 1].first;
        }
        if (2 * h < heap.size()) {
          next.has_b = true;
          next.b = heap[2 * h].first;
        }
        advice[w].records[key_at_w] = next;
      }
    }

    std::vector<BitString> out(g.num_nodes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      out[v] = encode_node_advice(advice[v]);
    }
    return out;
  }

 private:
  unsigned k_;
};

/// Spanner wake-up: decoded advice + start flag per node.
class SpannerKernel {
 public:
  struct State {
    NodeAdvice advice;
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
    self.advice = decode_node_advice(ctx.advice());
    if (cause == sim::WakeCause::kAdversary) start(ctx, self);
  }

  template <class Ctx>
  void on_message(Ctx& ctx, const sim::Incoming& in) {
    State& self = (*states_)[ctx.node()];
    switch (in.msg.type) {
      case kSpWake: {
        // Reply with our next-sibling pair in the sender's heap so its
        // dissemination continues, then wake our own spanner neighborhood.
        const auto it = self.advice.records.find(in.port);
        RISE_CHECK_MSG(it != self.advice.records.end(),
                       "spanner wake arrived over a non-spanner edge");
        const NextPair& next = it->second;
        sim::PayloadWords payload{
            (next.has_a ? 1u : 0u) | (next.has_b ? 2u : 0u),
            next.has_a ? next.a : 0, next.has_b ? next.b : 0};
        ctx.send(in.port, sim::make_message(kSpNext, std::move(payload),
                                            8 + 2 * ctx.label_bits()));
        start(ctx, self);
        break;
      }
      case kSpNext: {
        const std::uint64_t flags = in.msg.payload[0];
        const sim::Message wake = sim::make_message(kSpWake, {}, 8);
        if (flags & 1u) {
          ctx.send(static_cast<sim::Port>(in.msg.payload[1]), wake);
        }
        if (flags & 2u) {
          ctx.send(static_cast<sim::Port>(in.msg.payload[2]), wake);
        }
        break;
      }
      default:
        RISE_CHECK_MSG(false,
                       "spanner scheme: unexpected message " << in.msg.type);
    }
  }

 private:
  template <class Ctx>
  void start(Ctx& ctx, State& self) {
    if (self.started) return;
    self.started = true;
    if (self.advice.has_first) {
      ctx.send(self.advice.first, sim::make_message(kSpWake, {}, 8));
    }
  }

  States own_;
  States* states_ = nullptr;
};

}  // namespace

std::unique_ptr<AdvisingOracle> spanner_oracle(unsigned k) {
  RISE_CHECK(k >= 1);
  return std::make_unique<SpannerOracle>(k);
}

sim::KernelRunner spanner_kernel() {
  return sim::make_kernel(SpannerKernel{});
}

AdvisingScheme spanner_scheme(unsigned k) {
  return {spanner_oracle(k), spanner_kernel()};
}

AdvisingScheme corollary2_scheme() {
  return {std::make_unique<SpannerOracle>(0), spanner_kernel()};
}

}  // namespace rise::advice
