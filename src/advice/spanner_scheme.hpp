// Theorem 6 / Corollary 2: spanner-based advising schemes in the
// asynchronous KT0 CONGEST model.
//
// The oracle computes a greedy (2k-1)-spanner S (O(n^{1+1/k}) edges) and
// applies the child-encoding idea to each node's *incident spanner edges*:
// node v's spanner neighbors are arranged in a balanced binary heap, v's
// advice holds the port of the first one, and for every incident spanner
// edge (w, v) the advice of w holds w's next-sibling pair *in v's heap*
// (ports at v), keyed by the port at w that carries the edge. Advice length
// is therefore O(deg_S(w) log n) bits — O(n^{1/k} log^2 n) for the spanner
// degrees arising here — and each message carries at most two port numbers
// (CONGEST-safe).
//
// Wake-up floods over spanner edges with the binary sibling dissemination:
//   time    O(k * rho_awk * log n)   (stretch 2k-1 per hop, log-depth heaps)
//   messages O(k * n^{1+1/k})        (<= 2 per directed spanner edge)
// Corollary 2 instantiates k = ceil(log2 n): O(log^2 n) advice,
// O(n log^2 n) messages, O(rho_awk log^2 n) time.
#pragma once

#include <memory>

#include "advice/advice.hpp"

namespace rise::advice {

inline constexpr std::uint32_t kSpWake = 0x05A1;
inline constexpr std::uint32_t kSpNext = 0x05A2;

/// k >= 1: stretch parameter of the greedy (2k-1)-spanner.
std::unique_ptr<AdvisingOracle> spanner_oracle(unsigned k);

sim::KernelRunner spanner_kernel();

AdvisingScheme spanner_scheme(unsigned k);

/// Corollary 2: k = ceil(log2 n), chosen by the oracle from the instance.
AdvisingScheme corollary2_scheme();

}  // namespace rise::advice
