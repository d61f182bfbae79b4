// Shared helpers for the test suite: instance construction shorthands,
// one-call run wrappers, run digests, a payload-hashing trace sink, a
// kernel built from lambdas for test
// fakes, and a catalog of workload graphs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace rise::test {

inline sim::Instance make_instance(
    const graph::Graph& g, sim::Knowledge knowledge,
    sim::Bandwidth bandwidth = sim::Bandwidth::LOCAL,
    std::uint64_t seed = 12345) {
  sim::InstanceOptions opt;
  opt.knowledge = knowledge;
  opt.bandwidth = bandwidth;
  Rng rng(seed);
  return sim::Instance::create(g, opt, rng);
}

inline sim::RunResult run_async_unit(const sim::Instance& inst,
                                     const sim::WakeSchedule& schedule,
                                     const sim::KernelRunner& kernel,
                                     std::uint64_t seed = 7) {
  const auto delays = sim::unit_delay();
  return sim::run_async(inst, *delays, schedule, seed, kernel);
}

/// Serializes everything observable about a run: the trace text (when the
/// run was traced), wake times, outputs, every metrics counter and the
/// awake rounds. Two runs are bit-identical iff their digests are equal.
inline std::string digest(const sim::RunResult& r,
                          const std::string& trace = {}) {
  std::ostringstream os;
  os << trace << "|";
  for (auto t : r.wake_time) os << t << ",";
  os << "|";
  for (auto o : r.outputs) os << o << ",";
  os << "|" << r.metrics.messages << "," << r.metrics.bits << ","
     << r.metrics.deliveries << "," << r.metrics.events << ","
     << r.metrics.first_wake << "," << r.metrics.last_wake << ","
     << r.metrics.last_delivery << "," << r.metrics.rounds << ","
     << r.metrics.tau;
  for (auto v : r.metrics.sent_per_node) os << "," << v;
  for (auto v : r.metrics.received_per_node) os << "," << v;
  os << "|" << r.metrics.sleep_dropped;
  for (auto v : r.awake_rounds) os << "," << v;
  return os.str();
}

/// 64-bit FNV-1a, for pinning a digest as a golden number.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over every event of a run, payload words included, so a pin
/// fixes what each message carries, not only its type and declared bits.
class PayloadHashSink final : public sim::TraceSink {
 public:
  void on_send(sim::Time t, sim::NodeId from, sim::NodeId to,
               const sim::Message& msg, Words words) override {
    mix({0, t, from, to, msg.type, msg.logical_bits(), words.size()});
    for (std::uint64_t w : words) mix({w});
  }
  void on_deliver(sim::Time t, sim::NodeId from, sim::NodeId to,
                  const sim::Message& msg, Words) override {
    mix({1, t, from, to, msg.type});
  }
  void on_node_wake(sim::Time t, sim::NodeId node,
                    sim::WakeCause cause) override {
    mix({2, t, node, static_cast<std::uint64_t>(cause)});
  }

  std::uint64_t hash() const { return hash_; }

 private:
  void mix(std::initializer_list<std::uint64_t> words) {
    for (std::uint64_t w : words) {
      for (int byte = 0; byte < 8; ++byte) {
        hash_ ^= (w >> (8 * byte)) & 0xFF;
        hash_ *= 1099511628211ULL;
      }
    }
  }

  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// A hook that does nothing; as the round hook, it leaves the kernel
/// without an on_round.
struct NoHook {
  template <class... Args>
  void operator()(Args&&...) const {}
};

/// A test-fake kernel assembled from generic lambdas:
///   wake(ctx, cause), message(ctx, in), round(ctx, inbox).
/// make_kernel copies the kernel, lambdas included, for every run, so state
/// a `mutable` lambda captures by value starts fresh on each run. The
/// lambdas read ctx.node() to tell nodes apart.
template <class Wake, class Message, class Round>
struct LambdaKernel {
  Wake wake;
  Message message;
  Round round;

  void reset(const sim::Instance&, sim::RunWorkspace*) {}

  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause cause) {
    wake(ctx, cause);
  }
  template <class Ctx>
  void on_message(Ctx& ctx, const sim::Incoming& in) {
    message(ctx, in);
  }
  /// Absent when there is no round hook, so a sync round passes each inbox
  /// message to on_message (sim::deliver_round).
  template <class Ctx>
    requires(!std::is_same_v<Round, NoHook>)
  void on_round(Ctx& ctx, std::span<const sim::Incoming> inbox) {
    round(ctx, inbox);
  }
};

template <class Wake = NoHook, class Message = NoHook, class Round = NoHook>
sim::KernelRunner lambda_kernel(Wake wake = {}, Message message = {},
                                Round round = {}) {
  return sim::make_kernel(LambdaKernel<Wake, Message, Round>{
      std::move(wake), std::move(message), std::move(round)});
}

struct NamedGraph {
  std::string name;
  graph::Graph graph;
};

/// A diverse catalog of small-to-medium connected graphs.
inline std::vector<NamedGraph> graph_catalog(std::uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<NamedGraph> out;
  out.push_back({"path_40", graph::path(40)});
  out.push_back({"cycle_41", graph::cycle(41)});
  out.push_back({"star_50", graph::star(50)});
  out.push_back({"complete_24", graph::complete(24)});
  out.push_back({"grid_8x9", graph::grid(8, 9)});
  out.push_back({"torus_6x7", graph::torus(6, 7)});
  out.push_back({"hypercube_6", graph::hypercube(6)});
  out.push_back({"tree_60", graph::random_tree(60, rng)});
  out.push_back({"gnp_70", graph::connected_gnp(70, 0.08, rng)});
  out.push_back({"regular_48_5", graph::random_regular(48, 5, rng)});
  out.push_back({"lollipop_12_20", graph::lollipop(12, 20)});
  out.push_back({"barbell_10_6", graph::barbell(10, 6)});
  return out;
}

}  // namespace rise::test
