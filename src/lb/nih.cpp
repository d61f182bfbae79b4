#include "lb/nih.hpp"

namespace rise::lb {

std::vector<std::uint64_t> nih_expected_outputs(
    const sim::Instance& instance, const LowerBoundFamily& family) {
  std::vector<std::uint64_t> expected(family.n);
  for (graph::NodeId i = 0; i < family.n; ++i) {
    const graph::NodeId v = family.center(i);
    const graph::NodeId w = family.crucial_neighbor(i);
    if (instance.knowledge() == sim::Knowledge::KT0) {
      expected[i] = instance.neighbor_to_port(v, w);
    } else {
      expected[i] = instance.label(w);
    }
  }
  return expected;
}

graph::NodeId nih_correct_count(const sim::RunResult& result,
                                const sim::Instance& instance,
                                const LowerBoundFamily& family) {
  const auto expected = nih_expected_outputs(instance, family);
  graph::NodeId correct = 0;
  for (graph::NodeId i = 0; i < family.n; ++i) {
    if (result.outputs[family.center(i)] == expected[i]) ++correct;
  }
  return correct;
}

}  // namespace rise::lb
