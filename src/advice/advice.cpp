#include "advice/advice.hpp"

#include <utility>

namespace rise::advice {

sim::Instance::AdviceStats apply_oracle(sim::Instance& instance,
                                        const AdvisingOracle& oracle) {
  // One word a node covers the tree schemes' advice at table-1 sizes;
  // longer advice grows the word array a few times, not once per node.
  BitArena advice;
  advice.reserve(instance.num_nodes(), instance.num_nodes());
  oracle.advise(instance, advice);
  instance.set_advice(std::move(advice));
  return instance.advice_stats();
}

}  // namespace rise::advice
