#include "sim/engine_core.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace rise::sim {

EngineCore::EngineCore(const Instance& instance, Time tau, std::uint64_t seed,
                       TraceSink* trace, obs::Probe* probe,
                       RunWorkspace* workspace)
    : instance_(instance),
      trace_(trace),
      probe_(probe),
      workspace_(workspace) {
  const NodeId n = instance_.num_nodes();
  if (probe_ != nullptr) probe_->attach_run(n);
  if (workspace_ != nullptr) {
    rngs_ = std::move(workspace_->rngs);
    awake_ = std::move(workspace_->awake);
    result_ = std::move(workspace_->result);
  }
  rngs_.clear();
  rngs_.reserve(n);
  for (NodeId u = 0; u < n; ++u) rngs_.emplace_back(mix_seed(seed, u));
  awake_.assign(n, 0);
  result_.wake_time.assign(n, kNever);
  result_.outputs.assign(n, kNoOutput);
  result_.awake_rounds.assign(n, 0);
  // Zero the scalar metrics in place while keeping the recycled per-node
  // counter buffers.
  auto sent = std::move(result_.metrics.sent_per_node);
  auto received = std::move(result_.metrics.received_per_node);
  result_.metrics = Metrics{};
  result_.metrics.tau = tau;
  sent.assign(n, 0);
  received.assign(n, 0);
  result_.metrics.sent_per_node = std::move(sent);
  result_.metrics.received_per_node = std::move(received);
}

EngineCore::~EngineCore() {
  if (workspace_ == nullptr) return;
  workspace_->rngs = std::move(rngs_);
  workspace_->awake = std::move(awake_);
  workspace_->result = std::move(result_);
}

}  // namespace rise::sim
