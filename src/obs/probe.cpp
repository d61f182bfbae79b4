#include "obs/probe.hpp"

#include "sim/metrics.hpp"

namespace rise::obs {

namespace {

/// Thread-local deferral target (see DeferredMarkScope). Plain pointers:
/// the engine guarantees the scope outlives every probe call it defers.
struct DeferTarget {
  std::vector<DeferredMark>* marks = nullptr;
  const std::uint64_t* seq = nullptr;
};

thread_local DeferTarget tl_defer;

bool defer(DeferredMark::Kind kind, sim::NodeId node, std::string_view name,
           std::uint64_t count) {
  if (tl_defer.marks == nullptr) return false;
  DeferredMark mark;
  mark.seq = *tl_defer.seq;
  mark.kind = kind;
  mark.node = node;
  mark.name = name;
  mark.count = count;
  tl_defer.marks->push_back(std::move(mark));
  return true;
}

}  // namespace

DeferredMarkScope::DeferredMarkScope(std::vector<DeferredMark>* marks,
                                     const std::uint64_t* seq) {
  tl_defer.marks = marks;
  tl_defer.seq = seq;
}

DeferredMarkScope::~DeferredMarkScope() { tl_defer = DeferTarget{}; }

Probe::Probe() {
  phases_.emplace_back().name = "(unphased)";
  phase_ids_.emplace("(unphased)", 0);
  class_names_.push_back("node");
  class_messages_.push_back(0);
  class_ids_.emplace("node", 0);
}

void Probe::attach_run(std::uint32_t num_nodes) {
  node_phase_.assign(num_nodes, 0);
  node_class_.assign(num_nodes, 0);
}

std::uint32_t Probe::intern_phase(std::string_view name) {
  auto it = phase_ids_.find(name);
  if (it != phase_ids_.end()) return it->second;
  auto id = static_cast<std::uint32_t>(phases_.size());
  phases_.emplace_back().name = name;
  phase_ids_.emplace(std::string(name), id);
  return id;
}

std::uint32_t Probe::intern_class(std::string_view name) {
  auto it = class_ids_.find(name);
  if (it != class_ids_.end()) return it->second;
  auto id = static_cast<std::uint32_t>(class_names_.size());
  class_names_.push_back(std::string(name));
  class_messages_.push_back(0);
  class_ids_.emplace(std::string(name), id);
  return id;
}

void Probe::mark_phase(sim::NodeId node, std::string_view name) {
  if (defer(DeferredMark::Kind::kPhase, node, name, 0)) return;
  std::uint32_t id = intern_phase(name);
  if (node_phase_[node] == id) return;
  node_phase_[node] = id;
  ++phases_[id].marks;
}

void Probe::mark_class(sim::NodeId node, std::string_view name) {
  if (defer(DeferredMark::Kind::kClass, node, name, 0)) return;
  node_class_[node] = intern_class(name);
}

void Probe::add_counter(std::string_view name, std::uint64_t n) {
  if (defer(DeferredMark::Kind::kCounter, 0, name, n)) return;
  auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += n;
  } else {
    counters_.emplace(std::string(name), n);
  }
}

void Probe::add_timer(std::string_view name, double wall_seconds,
                      std::uint64_t sim_ticks) {
  auto it = timer_ids_.find(name);
  std::size_t idx;
  if (it != timer_ids_.end()) {
    idx = it->second;
  } else {
    idx = timers_.size();
    TimerProfile timer;
    timer.name = name;
    timers_.push_back(std::move(timer));
    timer_ids_.emplace(std::string(name), idx);
  }
  TimerProfile& t = timers_[idx];
  ++t.calls;
  t.wall_seconds += wall_seconds;
  t.sim_ticks += sim_ticks;
}

void Probe::replay(const DeferredMark& mark) {
  switch (mark.kind) {
    case DeferredMark::Kind::kPhase:
      mark_phase(mark.node, mark.name);
      break;
    case DeferredMark::Kind::kClass:
      mark_class(mark.node, mark.name);
      break;
    case DeferredMark::Kind::kCounter:
      add_counter(mark.name, mark.count);
      break;
  }
}

std::uint64_t Probe::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

RunProfile Probe::take_profile(const sim::RunResult& result) const {
  RunProfile p;
  const sim::Metrics& m = result.metrics;
  p.messages = m.messages;
  p.bits = m.bits;
  p.deliveries = m.deliveries;
  p.events = m.events;
  p.rounds = m.rounds;
  p.time_units = m.time_units();

  p.sleep_dropped = m.sleep_dropped;
  for (std::uint32_t a : result.awake_rounds) {
    p.awake_total += a;
    if (a > p.awake_max) p.awake_max = a;
    p.awake_rounds.add(a);
  }

  p.phases = phases_;

  p.classes.resize(class_names_.size());
  for (std::size_t c = 0; c < class_names_.size(); ++c) {
    p.classes[c].name = class_names_[c];
    p.classes[c].messages = class_messages_[c];
  }
  // Node membership and per-node send distributions use each node's class
  // at the end of the run (classes rarely change once assigned).
  for (std::size_t u = 0; u < node_class_.size(); ++u) {
    ClassProfile& cp = p.classes[node_class_[u]];
    ++cp.nodes;
    if (u < m.sent_per_node.size()) {
      cp.sent_per_node.add(m.sent_per_node[u]);
    }
  }

  p.counters.assign(counters_.begin(), counters_.end());
  p.engine = engine_;
  p.timers = timers_;
  return p;
}

PhaseTimer::PhaseTimer(Probe* probe, std::string_view name) : probe_(probe) {
  if (!probe_) return;
  name_ = name;
  start_ = std::chrono::steady_clock::now();
}

PhaseTimer::~PhaseTimer() {
  if (!probe_) return;
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start_;
  probe_->add_timer(name_, elapsed.count(), sim_ticks_);
}

}  // namespace rise::obs
