// A CONGEST-compatible variant of Theorem 3's ranked DFS — and an
// experimental illustration of why the theorem is stated for LOCAL.
//
// The paper's token carries the full list of visited IDs (Theta(n log n)
// bits), which is what steers the DFS with only O(n) token forwards. Under
// CONGEST a message holds O(log n) bits, so the token here carries only
// (rank, origin); nodes remember locally which tokens visited them, and the
// traversal becomes the classic echo DFS:
//   * kCFwd  — offer the token to the next untried neighbor;
//   * kCNack — "already visited", bounce back;
//   * kCRet  — subtree finished, return to DFS parent.
// Every edge can now carry a Fwd/Nack pair, so the per-token message cost
// degrades from O(n) to O(m): `rise_cli run --algo ranked_dfs_congest`
// against `--algo ranked_dfs` on one graph shows the LOCAL-vs-CONGEST gap
// growing with the average degree. Rank
// discarding works exactly as in the LOCAL version, so correctness (the
// maximum-rank token completes) is unchanged.
#pragma once

#include "sim/kernel.hpp"

namespace rise::algo {

inline constexpr std::uint32_t kCFwd = 0x0DC1;
inline constexpr std::uint32_t kCNack = 0x0DC2;
inline constexpr std::uint32_t kCRet = 0x0DC3;

sim::KernelRunner ranked_dfs_congest_kernel(unsigned rank_bits = 48);

}  // namespace rise::algo
