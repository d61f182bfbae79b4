#include "algo/ranked_dfs_congest.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "support/check.hpp"

namespace rise::algo {

namespace {

using sim::Incoming;
using sim::Label;
using sim::Port;

/// Sends the token message [rank, origin] over port p.
template <class Ctx>
void send_token(Ctx& ctx, Port p, std::uint32_t type, std::uint64_t rank,
                Label origin, unsigned rank_bits) {
  ctx.send(p, type, 8 + rank_bits + ctx.label_bits(), rank, origin);
}

/// CONGEST ranked DFS. Each node clamps the rank width to its label bits on
/// wake and keeps the clamped width in its State (on_wake always precedes
/// on_message, so it is set before any use).
class RankedDfsCongestKernel {
 public:
  explicit RankedDfsCongestKernel(unsigned rank_bits)
      : rank_bits_(rank_bits) {}

  struct TokenState {
    bool visited = false;
    Port parent_port = sim::kInvalidPort;
    Port next_port = 0;
  };

  struct State {
    unsigned rank_bits = 0;
    std::uint64_t rank = 0;
    std::pair<std::uint64_t, Label> best{0, 0};
    std::map<Label, TokenState> tokens;
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
    // Ranks come from [n^c] (c = 4 here), so they occupy O(log n) bits and
    // the token message fits the CONGEST budget.
    self.rank_bits = std::min(rank_bits_, 4 * ctx.label_bits());
    if (cause != sim::WakeCause::kAdversary) return;
    obs::NodeProbe probe = ctx.probe();
    probe.phase("dfs.launch");
    probe.node_class("initiator");
    probe.count("dfs.tokens_launched");
    const std::uint64_t rank_space =
        (std::uint64_t{1} << self.rank_bits) - 1;
    self.rank = 1 + ctx.rng().uniform(rank_space);
    self.best = {self.rank, ctx.my_label()};
    TokenState& state = self.tokens[ctx.my_label()];
    state.visited = true;
    try_next(ctx, self, self.rank, ctx.my_label(), state);
  }

  template <class Ctx>
  void on_message(Ctx& ctx, const Incoming& in) {
    State& self = (*states_)[ctx.node()];
    const std::uint64_t rank = in.words()[0];
    const Label origin = in.words()[1];
    const std::pair<std::uint64_t, Label> key{rank, origin};
    ctx.probe().phase("dfs.token");
    if (key < self.best) {  // discard losing tokens, as in the LOCAL version
      ctx.probe().count("dfs.tokens_discarded");
      return;
    }
    self.best = key;
    TokenState& state = self.tokens[origin];
    switch (in.msg.type) {
      case kCFwd:
        if (state.visited) {
          send_token(ctx, in.port, kCNack, rank, origin, self.rank_bits);
        } else {
          state.visited = true;
          state.parent_port = in.port;
          try_next(ctx, self, rank, origin, state);
        }
        break;
      case kCNack:
      case kCRet:
        try_next(ctx, self, rank, origin, state);
        break;
      default:
        RISE_CHECK_MSG(false, "ranked_dfs_congest: unexpected message type "
                                  << in.msg.type);
    }
  }

 private:
  /// Offers the token to the next untried port (skipping the DFS parent);
  /// returns it to the parent when exhausted.
  template <class Ctx>
  void try_next(Ctx& ctx, State& self, std::uint64_t rank, Label origin,
                TokenState& state) {
    while (state.next_port < ctx.degree()) {
      const Port p = state.next_port++;
      if (p == state.parent_port) continue;
      send_token(ctx, p, kCFwd, rank, origin, self.rank_bits);
      return;
    }
    if (state.parent_port != sim::kInvalidPort) {
      send_token(ctx, state.parent_port, kCRet, rank, origin,
                 self.rank_bits);
    }
    // Otherwise we are the origin: the DFS is complete.
  }

  unsigned rank_bits_;
  States own_;
  States* states_ = nullptr;
};

}  // namespace

sim::KernelRunner ranked_dfs_congest_kernel(unsigned rank_bits) {
  RISE_CHECK(rank_bits >= 8 && rank_bits <= 62);
  return sim::make_kernel(RankedDfsCongestKernel(rank_bits));
}

}  // namespace rise::algo
