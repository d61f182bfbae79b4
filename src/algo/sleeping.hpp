// Sleeping-model algorithm families (Ghaffari–Portmann, arXiv:2305.06120):
// maximal independent set and maximal matching under the *awake complexity*
// measure, with the tight-bounds follow-up (arXiv:2410.09980) supplying the
// O(log n) awake envelope of the smis and smatching claims
// (src/check/claims.cpp).
//
// Both families run on the synchronous engine with
// SyncRunLimits::sleeping_model enabled (the sleeping model grants nodes a
// synchronized global clock; see DESIGN.md §13) and share a 3-round window
// structure keyed on ctx.now() % 3:
//
//   sleeping MIS (smis)
//     slot 0  every contending node draws a fresh priority and broadcasts
//             PRIO; slot 1  a node that has heard *something* on every port
//             joins the MIS iff its (priority, label) strictly beats every
//             PRIO received this round, then announces STATUS[in_mis=1];
//             receiving STATUS[1] on any port decides a contender out.
//
//   sleeping matching (smatching)
//     slot 0  every unmatched contender flips a fair coin; proposers send
//             PROPOSE on one uniformly random live port; slot 1  a
//             non-proposer accepts its best received proposal (ACCEPT back,
//             MATCHED on every other port); slot 2  a proposer receiving
//             ACCEPT commits; MATCHED marks the receiving port dead, and a
//             node whose ports are all dead decides unmatched.
//
// Decided nodes run the Ghaffari–Portmann exponential nap schedule: a chain
// of doubling-length ctx.sleep_until naps (messages arriving mid-nap
// are dropped by the engine), answering contention messages that land in a
// check-in round with their final status so late-woken neighbors can still
// make progress. Contenders pay O(1) awake rounds per window and decide in
// O(log n) windows w.h.p.; deciders pay O(log(run length)) check-ins — so
// the measured per-node awake_rounds stay O(log n).
//
// Outputs: smis nodes output 1 (in MIS) or 0; smatching nodes output their
// partner's label, or their own label when maximally unmatched. Nodes the
// adversary never wakes (unreachable components) produce no output — waking
// spontaneously would break the wake-up model.
#pragma once

#include "sim/kernel.hpp"

namespace rise::algo {

inline constexpr std::uint32_t kSmisPrio = 0x51A1;
inline constexpr std::uint32_t kSmisStatus = 0x51A2;
inline constexpr std::uint32_t kSmatPropose = 0x51B1;
inline constexpr std::uint32_t kSmatAccept = 0x51B2;
inline constexpr std::uint32_t kSmatMatched = 0x51B3;

/// Naps per decided node: lengths 2, 4, ..., 2^kSleepNapStages rounds.
inline constexpr std::uint32_t kSleepNapStages = 4;

sim::KernelRunner sleeping_mis_kernel();
sim::KernelRunner sleeping_matching_kernel();

}  // namespace rise::algo
