// Theorem 3: asynchronous KT1 LOCAL wake-up with O(n log n) time and message
// complexity w.h.p., via rank-annotated DFS token passing (Sec. 3.1).
//
// Every node woken *by the adversary* draws a random rank from [n^c] and
// launches a depth-first-search token carrying (rank, origin ID, full list of
// visited IDs). Nodes remember the lexicographically largest (rank, ID) pair
// they have seen:
//   (a) a token that beats the node's current maximum is forwarded to some
//       neighbor not yet on the token's visited list (or backtracked to its
//       DFS parent when none remains), and the maximum is updated;
//   (b) a token that loses the comparison is silently discarded.
// Nodes woken by a message never create ranks or tokens.
//
// The token's visited list steers the DFS (KT1: a node can compare its
// neighbors' IDs against the list), so a token's trajectory is a DFS
// traversal of a tree: each edge is crossed at most twice and the token is
// forwarded O(n) times (Claim 1). The maximum-rank token is never discarded,
// which guarantees that all nodes wake with probability 1 (Las Vegas); the
// staggered-wakeup analysis of Sec. 3.1.1 bounds time and messages by
// O(n log n) w.h.p. against any oblivious adversary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "support/check.hpp"

namespace rise::algo {

inline constexpr std::uint32_t kDfsToken = 0x0D55;
inline constexpr std::uint32_t kDfsLeader = 0x0D56;

/// Per-run statistics a test can inspect: how many distinct tokens each node
/// forwarded (Claim 4 says O(log n) w.h.p.).
struct RankedDfsProbe {
  std::vector<std::uint32_t> tokens_forwarded;  // indexed by internal node id
};

/// Ranked DFS with each node's rank, best-seen key and per-token DFS state in
/// one State entry of a flat vector. In the header so wrappers
/// (lb::NihKernel) can hold it.
class RankedDfsKernel {
 public:
  RankedDfsKernel(RankedDfsProbe* probe, unsigned rank_bits,
                  bool discard_losers, bool elect)
      : probe_(probe),
        rank_bits_(rank_bits),
        discard_losers_(discard_losers),
        elect_(elect) {}

  struct TokenState {
    sim::Port parent_port = sim::kInvalidPort;
  };

  struct State {
    bool announced = false;
    TokenState leader_state;
    std::uint64_t rank = 0;
    std::pair<std::uint64_t, sim::Label> best{0, 0};
    std::map<sim::Label, TokenState> tokens;
    std::set<sim::Label> forwarded_origins;
  };
  using States = std::vector<State>;

  void reset(const sim::Instance& instance, sim::RunWorkspace* workspace) {
    states_ = &sim::acquire_kernel_state(workspace, own_);
    states_->clear();
    states_->resize(instance.num_nodes());
  }

  template <class Ctx>
  void on_wake(Ctx& ctx, sim::WakeCause cause) {
    if (cause != sim::WakeCause::kAdversary) return;
    State& self = (*states_)[ctx.node()];
    obs::NodeProbe obs_probe = ctx.probe();
    obs_probe.phase("dfs.launch");
    obs_probe.node_class("initiator");
    obs_probe.count("dfs.tokens_launched");
    // Draw a random rank from [n^c] (Sec. 3.1); nonzero so that the initial
    // "no token seen" state (0, 0) loses every comparison.
    const std::uint64_t rank_space = (std::uint64_t{1} << rank_bits_) - 1;
    self.rank = 1 + ctx.rng().uniform(rank_space);
    self.best = {self.rank, ctx.my_label()};
    // Launch our own DFS token.
    std::vector<sim::Label> visited{ctx.my_label()};
    TokenState& state = self.tokens[ctx.my_label()];
    state.parent_port = sim::kInvalidPort;
    advance_token(ctx, self, self.rank, ctx.my_label(), visited, state);
  }

  template <class Ctx>
  void on_message(Ctx& ctx, const sim::Incoming& in) {
    State& self = (*states_)[ctx.node()];
    if (in.msg.type == kDfsLeader) {
      on_leader_token(ctx, self, in);
      return;
    }
    TokenView token = decode_token(in.msg);
    ctx.probe().phase("dfs.token");
    const std::pair<std::uint64_t, sim::Label> key{token.rank, token.origin};
    if (discard_losers_ && key < self.best) {  // case (b): discard
      ctx.probe().count("dfs.tokens_discarded");
      return;
    }
    self.best = std::max(self.best, key);

    TokenState& state = self.tokens[token.origin];
    const sim::Label me = ctx.my_label();
    const bool first_visit =
        std::find(token.visited.begin(), token.visited.end(), me) ==
        token.visited.end();
    if (first_visit) {
      token.visited.push_back(me);  // case (a): append own ID
      state.parent_port = in.port;
      ctx.probe().count("dfs.first_visits");
      if (probe_ != nullptr) {
        if (self.forwarded_origins.insert(token.origin).second) {
          if (probe_->tokens_forwarded.size() <= ctx.node()) {
            probe_->tokens_forwarded.resize(ctx.node() + 1, 0);
          }
          ++probe_->tokens_forwarded[ctx.node()];
        }
      }
    }
    advance_token(ctx, self, token.rank, token.origin, token.visited, state);
  }

 private:
  // Token payload: [rank, origin_label, visited_count, visited labels...].
  struct TokenView {
    std::uint64_t rank;
    sim::Label origin;
    std::vector<sim::Label> visited;
  };
  static sim::Message encode_token(std::uint64_t rank, sim::Label origin,
                                   const std::vector<sim::Label>& visited,
                                   unsigned label_bits, unsigned rank_bits);
  static TokenView decode_token(const sim::Message& msg);

  /// Forwards the token to the first neighbor not yet visited; backtracks to
  /// the DFS parent when all neighbors are on the list; stops at the origin.
  template <class Ctx>
  void advance_token(Ctx& ctx, State& self, std::uint64_t rank,
                     sim::Label origin, const std::vector<sim::Label>& visited,
                     TokenState& state) {
    const std::unordered_set<sim::Label> visited_set(visited.begin(),
                                                     visited.end());
    const auto labels = ctx.neighbor_labels();
    for (sim::Port p = 0; p < labels.size(); ++p) {
      if (!visited_set.count(labels[p])) {
        ctx.send(p, encode_token(rank, origin, visited, ctx.label_bits(),
                                 rank_bits_));
        return;
      }
    }
    if (state.parent_port != sim::kInvalidPort) {
      ctx.send(state.parent_port,
               encode_token(rank, origin, visited, ctx.label_bits(),
                            rank_bits_));
      return;
    }
    // We are the origin and the DFS is complete. If electing, announce
    // ourselves as leader with a second DFS pass.
    if (elect_ && origin == ctx.my_label() && !self.announced) {
      self.announced = true;
      obs::NodeProbe obs_probe = ctx.probe();
      obs_probe.phase("dfs.announce");
      obs_probe.node_class("leader");
      obs_probe.count("dfs.leaders_announced");
      ctx.set_output(ctx.my_label());
      std::vector<sim::Label> seen{ctx.my_label()};
      self.leader_state.parent_port = sim::kInvalidPort;
      advance_leader(ctx, self, ctx.my_label(), seen);
    }
  }

  /// The announce pass: same visited-list DFS mechanics, never discarded.
  template <class Ctx>
  void on_leader_token(Ctx& ctx, State& self, const sim::Incoming& in) {
    ctx.probe().phase("dfs.announce");
    RISE_CHECK(in.msg.payload.size() >= 2);
    const sim::Label leader = in.msg.payload[0];
    const std::uint64_t count = in.msg.payload[1];
    RISE_CHECK(in.msg.payload.size() == 2 + count);
    std::vector<sim::Label> visited(in.msg.payload.begin() + 2,
                                    in.msg.payload.end());
    const sim::Label me = ctx.my_label();
    if (std::find(visited.begin(), visited.end(), me) == visited.end()) {
      ctx.set_output(leader);
      visited.push_back(me);
      self.leader_state.parent_port = in.port;
    }
    advance_leader(ctx, self, leader, visited);
  }

  template <class Ctx>
  void advance_leader(Ctx& ctx, State& self, sim::Label leader,
                      const std::vector<sim::Label>& visited) {
    const std::unordered_set<sim::Label> visited_set(visited.begin(),
                                                     visited.end());
    const auto labels = ctx.neighbor_labels();
    auto encode = [&] {
      sim::PayloadWords payload{leader, visited.size()};
      payload.append(visited.begin(), visited.end());
      return sim::make_message(
          kDfsLeader, std::move(payload),
          ctx.label_bits() * (2 + visited.size()) + 32);
    };
    for (sim::Port p = 0; p < labels.size(); ++p) {
      if (!visited_set.count(labels[p])) {
        ctx.send(p, encode());
        return;
      }
    }
    if (self.leader_state.parent_port != sim::kInvalidPort) {
      ctx.send(self.leader_state.parent_port, encode());
    }
  }

  RankedDfsProbe* probe_;
  unsigned rank_bits_;
  bool discard_losers_;
  bool elect_;
  States own_;
  States* states_ = nullptr;
};

/// `probe` may be null. `rank_bits` is the log2 of the rank space (the
/// paper's [n^c]; 48 bits make collisions negligible while keeping messages
/// small).
sim::KernelRunner ranked_dfs_kernel(RankedDfsProbe* probe = nullptr,
                                    unsigned rank_bits = 48);

/// Wake-up + leader election: identical to ranked_dfs_kernel, except that
/// when the (unique) maximum-rank token completes its DFS, its origin
/// announces itself as leader along a second DFS pass, and every node
/// records the leader's ID as its output. This realizes the classic
/// reduction the paper's related-work section alludes to: adversarial
/// wake-up solves leader election at +O(n) messages and +O(n) time.
/// Exactly one node ever announces (a non-maximum token meets a node its
/// superior touched before finishing, and dies there).
sim::KernelRunner ranked_dfs_leader_kernel(RankedDfsProbe* probe = nullptr,
                                           unsigned rank_bits = 48);

/// Ablation of the algorithm's key design choice: with rank discarding OFF,
/// every token runs its DFS to completion (case (b) never fires), which
/// inflates the message complexity from O(n log n) to Theta(|A_0| * n) —
/// bench_ablations quantifies how much the random ranks buy.
sim::KernelRunner ranked_dfs_no_discard_kernel(RankedDfsProbe* probe = nullptr,
                                               unsigned rank_bits = 48);

}  // namespace rise::algo
