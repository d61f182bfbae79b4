// The "computing with advice" framework (Sec. 1.1, Sec. 4).
//
// An advising scheme is (1) an oracle that observes the whole instance —
// topology, IDs, and port mappings, but NOT the set of initially awake
// nodes — and assigns each node a bit string, and (2) a distributed
// algorithm that uses the advice. Time/message complexity of a scheme refer
// to the algorithm; advice length (max and average bits per node) is the
// third complexity measure of Table 1.
#pragma once

#include <memory>

#include "sim/instance.hpp"
#include "support/bitio.hpp"
#include "sim/kernel.hpp"

namespace rise::advice {

class AdvisingOracle {
 public:
  virtual ~AdvisingOracle() = default;

  /// Writes one advice string per node into `out`, in node order: node u's
  /// bits through out.writer(), then out.close().
  virtual void advise(const sim::Instance& instance, BitArena& out) const = 0;
};

/// Runs the oracle and installs the advice into the instance.
sim::Instance::AdviceStats apply_oracle(sim::Instance& instance,
                                        const AdvisingOracle& oracle);

/// An oracle + algorithm pair; the algorithm runs as a kernel
/// (sim/kernel.hpp).
struct AdvisingScheme {
  std::unique_ptr<AdvisingOracle> oracle;
  sim::KernelRunner kernel;
};

}  // namespace rise::advice
