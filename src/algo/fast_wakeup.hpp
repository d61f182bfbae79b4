// Theorem 4: synchronous KT1 LOCAL wake-up in 10 * rho_awk rounds with
// O(n^{3/2} sqrt(log n)) messages w.h.p. (algorithm FastWakeUp, Sec. 3.2.1).
//
// Structure per active node (10 local rounds):
//   * Sampling step — on activation, become a BFS root with probability
//     sqrt(log n / n).
//   * BFS tree construction — a root builds a depth-3 BFS tree in 9 rounds
//     using the neighbor-list exchange of [DPRS24]: invites to level 1, level
//     1 reports neighbor lists, the root computes the level-2 edge set S2 and
//     distributes it, and likewise for S3 one level further out. Joining a
//     tree at level 1 or 2 deactivates a node when the tree completes; a
//     *sleeping* node joining at level 3 becomes active.
//   * Broadcast step — a node still active 9 rounds after activation
//     broadcasts <activate!> in its 10th round and deactivates.
//
// Deactivation suppresses the broadcast step (Lemma 9 guarantees a node only
// deactivates when all its neighbors are already awake); deactivated nodes
// keep relaying in-progress tree constructions. Nodes use only their local
// round counter — there is no global clock (footnote 4).
//
// Runs under the synchronous engine only.
#pragma once

#include "sim/kernel.hpp"

namespace rise::algo {

inline constexpr std::uint32_t kFwInvite1 = 0x0FA1;
inline constexpr std::uint32_t kFwNbrList1 = 0x0FA2;
inline constexpr std::uint32_t kFwS2Assign = 0x0FA3;
inline constexpr std::uint32_t kFwInvite2 = 0x0FA4;
inline constexpr std::uint32_t kFwNbrList2 = 0x0FA5;
inline constexpr std::uint32_t kFwFwdLists = 0x0FA6;
inline constexpr std::uint32_t kFwS3ToL1 = 0x0FA7;
inline constexpr std::uint32_t kFwS3ToL2 = 0x0FA8;
inline constexpr std::uint32_t kFwInvite3 = 0x0FA9;
inline constexpr std::uint32_t kFwActivate = 0x0FAA;

/// `root_probability` overrides the sampling probability when >= 0 (tests);
/// the default -1 uses sqrt(log n / n) with n taken from the ID-range bound.
/// With an obs::Probe attached the run counts fw.roots_sampled,
/// fw.l1_joins, fw.l2_joins, fw.l3_invites and fw.activate_broadcasts.
/// Synchronous engine only.
sim::KernelRunner fast_wakeup_kernel(double root_probability = -1.0);

}  // namespace rise::algo
