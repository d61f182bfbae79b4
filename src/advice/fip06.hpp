// Corollary 1 (after Fraigniaud, Ilcinkas, Pelc 2006): an advising scheme in
// the asynchronous KT0 CONGEST model with O(D) time, O(n) messages, O(n)
// maximum and O(log n) average advice length.
//
// The oracle computes a BFS tree (a BFS tree rather than an arbitrary
// spanning tree yields the O(D) time bound) and gives each node the set of
// its ports that carry tree edges. Appendix B's log-factor shave on the
// maximum advice is realized by encoding the port set as a degree-long
// bitmap whenever that is shorter than the port list.
//
// The algorithm floods over tree edges only: a node, once awake, sends a
// single wake-up message over each of its tree ports (minus the port it was
// woken through), so every tree edge carries at most two messages.
#pragma once

#include <memory>

#include "advice/advice.hpp"

namespace rise::advice {

inline constexpr std::uint32_t kTreeWake = 0x0AD1;

std::unique_ptr<AdvisingOracle> fip06_oracle(graph::NodeId root = 0);
sim::KernelRunner fip06_kernel();
AdvisingScheme fip06_scheme(graph::NodeId root = 0);

}  // namespace rise::advice
