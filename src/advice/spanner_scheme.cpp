#include "advice/spanner_scheme.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "graph/spanner.hpp"
#include "support/bitio.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace rise::advice {

namespace {

/// One spanner edge at a node: the port (at this node) carrying it, and
/// this node's next-sibling pair in the *neighbor's* heap (ports at the
/// neighbor; kInvalidPort where the heap has no such child).
struct Record {
  sim::Port port = sim::kInvalidPort;
  sim::Port a = sim::kInvalidPort;
  sim::Port b = sim::kInvalidPort;
};

/// A node's advice: the port of its first spanner neighbor (kInvalidPort
/// if it has none), then its records in port order.
BitString encode_node_advice(sim::Port first,
                             std::span<const Record> records) {
  BitWriter w;
  w.write_gamma(records.size());
  w.write_bit(first != sim::kInvalidPort);
  if (first != sim::kInvalidPort) w.write_gamma(first);
  for (const Record& rec : records) {
    w.write_gamma(rec.port);
    w.write_bit(rec.a != sim::kInvalidPort);
    if (rec.a != sim::kInvalidPort) w.write_gamma(rec.a);
    w.write_bit(rec.b != sim::kInvalidPort);
    if (rec.b != sim::kInvalidPort) w.write_gamma(rec.b);
  }
  return w.take();
}

/// Decodes into `room` (a node has at most one record per port) and
/// returns the record count.
std::uint32_t decode_node_advice(const BitString& bits, sim::Port& first,
                                 std::span<Record> room) {
  BitReader r(bits);
  const std::uint64_t count = r.read_gamma();
  RISE_CHECK_MSG(count <= room.size(),
                 "spanner advice: more records than ports");
  first = r.read_bit() ? static_cast<sim::Port>(r.read_gamma())
                       : sim::kInvalidPort;
  for (std::size_t i = 0; i < count; ++i) {
    Record& rec = room[i];
    rec.port = static_cast<sim::Port>(r.read_gamma());
    rec.a = r.read_bit() ? static_cast<sim::Port>(r.read_gamma())
                         : sim::kInvalidPort;
    rec.b = r.read_bit() ? static_cast<sim::Port>(r.read_gamma())
                         : sim::kInvalidPort;
  }
  return static_cast<std::uint32_t>(count);
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
    const graph::NodeId n = g.num_nodes();

    // w's records fill w's slots of the spanner's CSR, one per spanner edge.
    const std::uint64_t* slots = spanner.offsets_data();
    std::vector<Record> records(2 * spanner.num_edges());
    std::vector<graph::NodeId> filled(n, 0);
    std::vector<sim::Port> first(n, sim::kInvalidPort);
    std::vector<std::pair<sim::Port, graph::NodeId>> heap;
    for (graph::NodeId v = 0; v < n; ++v) {
      // v's spanner neighbors ordered by port at v, laid out as a 1-based
      // binary heap.
      heap.clear();
      for (graph::NodeId u : spanner.neighbors(v)) {
        heap.push_back({instance.neighbor_to_port(v, u), u});
      }
      std::sort(heap.begin(), heap.end());
      if (heap.empty()) continue;
      first[v] = heap[0].first;
      for (std::size_t i = 0; i < heap.size(); ++i) {
        const graph::NodeId w = heap[i].second;
        Record& rec = records[slots[w] + filled[w]++];
        rec.port = instance.neighbor_to_port(w, v);
        const std::size_t h = i + 1;
        if (2 * h - 1 < heap.size()) rec.a = heap[2 * h - 1].first;
        if (2 * h < heap.size()) rec.b = heap[2 * h].first;
      }
    }

    std::vector<BitString> out(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      const std::span<Record> own(records.data() + slots[v],
                                  spanner.degree(v));
      std::sort(own.begin(), own.end(), [](const Record& x, const Record& y) {
        return x.port < y.port;
      });
      out[v] = encode_node_advice(first[v], own);
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
    sim::Port first = sim::kInvalidPort;
    std::uint32_t records = 0;
    bool started = false;
  };
  /// Node v's decoded records sit at v's CSR slots of `pool`: a node has at
  /// most one record per port, so decoding allocates nothing in a warm
  /// workspace and no two nodes share a slot.
  struct States {
    std::vector<State> nodes;
    std::vector<Record> pool;
  };

  void reset(const sim::Instance& instance, sim::RunWorkspace* workspace) {
    states_ = &sim::acquire_kernel_state(workspace, own_);
    states_->nodes.clear();
    states_->nodes.resize(instance.num_nodes());
    states_->pool.resize(2 * instance.graph().num_edges());
    slots_ = instance.graph().offsets_data();
  }

  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause cause) {
    State& self = states_->nodes[ctx.node()];
    obs::NodeProbe probe = ctx.probe();
    probe.phase("advice.forward");
    probe.count("advice.decodes");
    self.records = decode_node_advice(ctx.advice(), self.first,
                                      room(ctx.node(), ctx.degree()));
    if (cause == sim::WakeCause::kAdversary) start(ctx, self);
  }

  template <class Ctx>
  void on_message(Ctx& ctx, const sim::Incoming& in) {
    State& self = states_->nodes[ctx.node()];
    switch (in.msg.type) {
      case kSpWake: {
        // Reply with our next-sibling pair in the sender's heap so its
        // dissemination continues, then wake our own spanner neighborhood.
        const auto records = room(ctx.node(), self.records);
        const auto it = std::lower_bound(
            records.begin(), records.end(), in.port,
            [](const Record& rec, sim::Port port) { return rec.port < port; });
        RISE_CHECK_MSG(it != records.end() && it->port == in.port,
                       "spanner wake arrived over a non-spanner edge");
        const bool has_a = it->a != sim::kInvalidPort;
        const bool has_b = it->b != sim::kInvalidPort;
        sim::PayloadWords payload{(has_a ? 1u : 0u) | (has_b ? 2u : 0u),
                                  has_a ? it->a : 0, has_b ? it->b : 0};
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
    if (self.first != sim::kInvalidPort) {
      ctx.send(self.first, sim::make_message(kSpWake, {}, 8));
    }
  }

  std::span<Record> room(graph::NodeId v, std::uint32_t size) const {
    return {states_->pool.data() + slots_[v], size};
  }

  States own_;
  States* states_ = nullptr;
  const std::uint64_t* slots_ = nullptr;  // the graph's CSR offsets
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
