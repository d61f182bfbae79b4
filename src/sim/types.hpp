// Shared simulator types: logical time, ports, labels, wake causes.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace rise::sim {

using graph::NodeId;
using graph::kInvalidNode;

/// Logical time in integer ticks. The asynchronous engine normalizes time
/// complexity by the delay policy's maximum delay tau, exactly as the paper's
/// Section 1.2 defines time units. The synchronous engine counts rounds.
using Time = std::uint64_t;

inline constexpr Time kNever = static_cast<Time>(-1);

/// A 0-based port number at a node; ports 0..deg(u)-1 address u's incident
/// links. (The paper is 1-based; the shift is cosmetic.)
using Port = std::uint32_t;

inline constexpr Port kInvalidPort = static_cast<Port>(-1);

/// A protocol-visible node identifier ("id(u)" in the paper) — chosen by the
/// adversary from a range polynomial in n. Distinct from the internal dense
/// NodeId index.
using Label = std::uint64_t;

inline constexpr Label kInvalidLabel = static_cast<Label>(-1);

/// A node's output before it records one (RunResult::outputs).
inline constexpr std::uint64_t kNoOutput = static_cast<std::uint64_t>(-1);

/// Why a node woke up. A real node observes this: an adversary-woken node
/// starts with no pending message, while a message-woken node's first action
/// is processing that message. Several of the paper's algorithms branch on it
/// (e.g. only adversary-woken nodes start a DFS token in Theorem 3).
enum class WakeCause : std::uint8_t { kAdversary, kMessage };

/// Initial-knowledge assumption (Sec. 1.1).
enum class Knowledge {
  KT0,  ///< port numbering only; neighbor identities unknown
  KT1,  ///< every node knows its neighbors' IDs from the start
};

/// Message-size regime (Sec. 1.1).
enum class Bandwidth {
  LOCAL,    ///< unbounded message size
  CONGEST,  ///< O(log n) bits per message (engine-enforced budget)
};

}  // namespace rise::sim
