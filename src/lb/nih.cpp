#include "lb/nih.hpp"

namespace rise::lb {

namespace {

/// Center v_i's NIH answer when the family has n centers: the port of
/// w_i = 2n + i under KT0, its ID under KT1.
std::uint64_t nih_answer(const sim::Instance& instance, graph::NodeId n,
                         graph::NodeId i) {
  const graph::NodeId w = 2 * n + i;
  if (instance.knowledge() == sim::Knowledge::KT0) {
    return instance.neighbor_to_port(i, w);
  }
  return instance.label(w);
}

}  // namespace

std::vector<std::uint64_t> nih_expected_outputs(
    const sim::Instance& instance, const LowerBoundFamily& family) {
  std::vector<std::uint64_t> expected(family.n);
  for (graph::NodeId i = 0; i < family.n; ++i) {
    expected[i] = nih_answer(instance, family.n, i);
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

graph::NodeId first_wrong_center(const sim::RunResult& result,
                                 const sim::Instance& instance) {
  const graph::NodeId n = instance.num_nodes() / 3;
  for (graph::NodeId i = 0; i < n; ++i) {
    if (result.outputs[i] != nih_answer(instance, n, i)) return i;
  }
  return graph::kInvalidNode;
}

}  // namespace rise::lb
