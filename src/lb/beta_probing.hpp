// The matching achievable side of Theorem 1: a family of KT0 CONGEST
// advising schemes parameterized by the advice budget beta.
//
// On the lower-bound family G, the port X_i at center v_i leading to its
// crucial neighbor w_i needs ceil(log2(n+1)) bits to describe. Theorem 1
// says that with only O(beta) advice bits per node the expected message
// complexity must be >= n^2 / 2^{beta+4} log n. The *probing scheme* here
// shows this is essentially tight from above: the oracle hands each center
// the top beta bits of X_i, and the center probes exactly the ports
// consistent with that prefix (about (n+1)/2^beta of them). Each degree-1
// node answers its first probe, which both wakes it and solves NIH; one
// designated broadcaster center wakes all of U with n more messages.
//
// Sweeping beta regenerates the advice-vs-messages trade-off curve:
//   messages(beta) ~ 2n * (n+1)/2^beta + O(n).
#pragma once

#include "advice/advice.hpp"
#include "lb/lower_bound_graphs.hpp"

namespace rise::lb {

inline constexpr std::uint32_t kProbe = 0x0B07;
inline constexpr std::uint32_t kIAmLeaf = 0x0B08;
inline constexpr std::uint32_t kBroadcastWake = 0x0B09;

/// Oracle giving each center `beta` prefix bits of its matching port (plus a
/// broadcaster flag on center 0). Requires a LowerBoundFamily-shaped KT0
/// instance.
std::unique_ptr<advice::AdvisingOracle> beta_probing_oracle(unsigned beta);

/// The probing algorithm; `beta` must match the oracle's.
sim::KernelRunner beta_probing_kernel(unsigned beta);

advice::AdvisingScheme beta_probing_scheme(unsigned beta);

}  // namespace rise::lb
