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

#include "sim/kernel.hpp"

namespace rise::algo {

inline constexpr std::uint32_t kDfsToken = 0x0D55;
inline constexpr std::uint32_t kDfsLeader = 0x0D56;

/// Per-run statistics a test can inspect: how many distinct tokens each node
/// forwarded (Claim 4 says O(log n) w.h.p.).
struct RankedDfsProbe {
  std::vector<std::uint32_t> tokens_forwarded;  // indexed by internal node id
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
