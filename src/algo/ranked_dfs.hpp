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
#include <cstddef>
#include <cstdint>
#include <span>
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

/// Ranked DFS with each node's rank, best-seen key and per-token DFS parents
/// in one State entry of a flat vector. In the header so wrappers
/// (lb::NihKernel) can hold it.
///
/// Both passes read the received visited list in place, as a span over the
/// payload; a node's own ID is appended to the outgoing copy only. A hop
/// costs a scan of the list per port tried (see first_unvisited_port) plus
/// one bulk copy into the engine's storage for the outgoing payload.
class RankedDfsKernel {
 public:
  RankedDfsKernel(RankedDfsProbe* probe, unsigned rank_bits,
                  bool discard_losers, bool elect)
      : probe_(probe),
        rank_bits_(rank_bits),
        discard_losers_(discard_losers),
        elect_(elect) {}

  struct State {
    bool announced = false;
    sim::Port leader_parent = sim::kInvalidPort;
    std::uint64_t rank = 0;
    std::pair<std::uint64_t, sim::Label> best{0, 0};
    /// (origin, DFS parent port) of every token this node has been on,
    /// searched linearly. With rank discarding a node sees O(log n) tokens
    /// w.h.p. (Claim 4); without it (ranked_dfs_nodiscard) every token
    /// reaches every node, so a lookup costs O(#tokens).
    std::vector<std::pair<sim::Label, sim::Port>> token_parents;

    /// Back to the fresh state, keeping token_parents' capacity so warm
    /// runs do not allocate.
    void clear() {
      announced = false;
      leader_parent = sim::kInvalidPort;
      rank = 0;
      best = {0, 0};
      token_parents.clear();
    }
  };
  using States = std::vector<State>;

  void reset(const sim::Instance& instance, sim::RunWorkspace* workspace) {
    states_ = &sim::acquire_kernel_state(workspace, own_);
    states_->resize(instance.num_nodes());
    for (State& s : *states_) s.clear();
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
    // Launch our own DFS token: an empty received list plus our own ID.
    self.token_parents.emplace_back(ctx.my_label(), sim::kInvalidPort);
    advance_token(ctx, self, self.rank, ctx.my_label(), {},
                  /*first_visit=*/true, sim::kInvalidPort);
  }

  template <class Ctx>
  void on_message(Ctx& ctx, const sim::Incoming& in) {
    State& self = (*states_)[ctx.node()];
    if (in.msg.type == kDfsLeader) {
      on_leader_token(ctx, self, in);
      return;
    }
    // Token payload: [rank, origin_label, visited_count, visited labels...].
    const std::span<const std::uint64_t> payload = in.words();
    RISE_CHECK(in.msg.type == kDfsToken && payload.size() >= 3);
    const std::uint64_t rank = payload[0];
    const sim::Label origin = payload[1];
    const std::uint64_t count = payload[2];
    RISE_CHECK(payload.size() - 3 == count);
    const std::span<const sim::Label> visited = payload.subspan(3);
    ctx.probe().phase("dfs.token");
    const std::pair<std::uint64_t, sim::Label> key{rank, origin};
    if (discard_losers_ && key < self.best) {  // case (b): discard
      ctx.probe().count("dfs.tokens_discarded");
      return;
    }
    self.best = std::max(self.best, key);

    const sim::Label me = ctx.my_label();
    const bool first_visit = !contains(visited, me);
    auto entry = std::find_if(
        self.token_parents.begin(), self.token_parents.end(),
        [origin](const auto& e) { return e.first == origin; });
    if (entry == self.token_parents.end()) {
      self.token_parents.emplace_back(origin, sim::kInvalidPort);
      entry = self.token_parents.end() - 1;
    }
    if (first_visit) {  // case (a): the outgoing copy appends our ID
      entry->second = in.port;
      ctx.probe().count("dfs.first_visits");
      // A token's list only grows, so it visits a node first at most once:
      // each first visit is a distinct token.
      if (probe_ != nullptr) {
        if (probe_->tokens_forwarded.size() <= ctx.node()) {
          probe_->tokens_forwarded.resize(ctx.node() + 1, 0);
        }
        ++probe_->tokens_forwarded[ctx.node()];
      }
    }
    advance_token(ctx, self, rank, origin, visited, first_visit,
                  entry->second);
  }

 private:
  static bool contains(std::span<const sim::Label> list, sim::Label label) {
    return std::find(list.begin(), list.end(), label) != list.end();
  }

  /// The first port whose neighbor is not on the received `visited` list;
  /// kInvalidPort when every neighbor is. This node's own ID, which the
  /// outgoing copy adds on a first visit, never matches a neighbor's:
  /// graphs have no self-loops and IDs are distinct.
  template <class Ctx>
  static sim::Port first_unvisited_port(Ctx& ctx,
                                        std::span<const sim::Label> visited) {
    const auto labels = ctx.neighbor_labels();
    for (std::size_t p = 0; p < labels.size(); ++p) {
      if (!contains(visited, labels[p])) return static_cast<sim::Port>(p);
    }
    return sim::kInvalidPort;
  }

  /// Sends `header...`, then the list length, the received list and (on a
  /// first visit) this node's ID: the outgoing payload of either pass.
  template <class Ctx, class... Header>
  static void send_list(Ctx& ctx, sim::Port to, std::uint32_t type,
                        std::uint64_t header_bits,
                        std::span<const sim::Label> visited, bool first_visit,
                        const Header&... header) {
    const sim::Label me = ctx.my_label();
    const std::size_t count = visited.size() + (first_visit ? 1 : 0);
    ctx.send(to, type, header_bits + std::uint64_t{ctx.label_bits()} * count,
             header..., count, visited,
             std::span<const sim::Label>(&me, first_visit ? 1 : 0));
  }

  /// Forwards the token to the first neighbor not yet visited; backtracks to
  /// the DFS parent when all neighbors are on the list; stops at the origin.
  template <class Ctx>
  void advance_token(Ctx& ctx, State& self, std::uint64_t rank,
                     sim::Label origin, std::span<const sim::Label> visited,
                     bool first_visit, sim::Port parent_port) {
    sim::Port to = first_unvisited_port(ctx, visited);
    if (to == sim::kInvalidPort) to = parent_port;
    if (to != sim::kInvalidPort) {
      // Logical size: rank + origin + the full visited list (LOCAL model).
      send_list(ctx, to, kDfsToken, rank_bits_ + ctx.label_bits() + 32,
                visited, first_visit, rank, origin);
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
      self.leader_parent = sim::kInvalidPort;
      advance_leader(ctx, self, ctx.my_label(), {}, /*first_visit=*/true);
    }
  }

  /// The announce pass: same visited-list DFS mechanics, never discarded.
  /// Payload: [leader_label, visited_count, visited labels...].
  template <class Ctx>
  void on_leader_token(Ctx& ctx, State& self, const sim::Incoming& in) {
    ctx.probe().phase("dfs.announce");
    const std::span<const std::uint64_t> payload = in.words();
    RISE_CHECK(payload.size() >= 2);
    const sim::Label leader = payload[0];
    const std::uint64_t count = payload[1];
    RISE_CHECK(payload.size() - 2 == count);
    const std::span<const sim::Label> visited = payload.subspan(2);
    const bool first_visit = !contains(visited, ctx.my_label());
    if (first_visit) {
      ctx.set_output(leader);
      self.leader_parent = in.port;
    }
    advance_leader(ctx, self, leader, visited, first_visit);
  }

  template <class Ctx>
  void advance_leader(Ctx& ctx, State& self, sim::Label leader,
                      std::span<const sim::Label> visited, bool first_visit) {
    sim::Port to = first_unvisited_port(ctx, visited);
    if (to == sim::kInvalidPort) to = self.leader_parent;
    if (to == sim::kInvalidPort) return;
    send_list(ctx, to, kDfsLeader, 2 * ctx.label_bits() + 32, visited,
              first_visit, leader);
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
