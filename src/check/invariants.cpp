#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace rise::check {

namespace {

std::uint64_t channel_key(sim::NodeId from, sim::NodeId to) {
  return static_cast<std::uint64_t>(from) << 32 | to;
}

}  // namespace

void InvariantChecker::begin(const RunModel& model,
                             const sim::WakeSchedule& schedule) {
  model_ = model;
  scheduled_.clear();
  for (const auto& [t, u] : schedule.wakes) scheduled_.emplace(u, t);

  in_flight_.clear();
  channel_last_delivery_.clear();
  sent_.assign(model.num_nodes, 0);
  received_.assign(model.num_nodes, 0);
  last_delivery_to_.assign(model.num_nodes, sim::kNever);
  earliest_delivery_to_.assign(model.num_nodes, sim::kNever);
  wake_time_.assign(model.num_nodes, sim::kNever);
  sends_ = deliveries_ = bits_ = wakes_ = 0;
  last_event_t_ = last_send_t_ = last_deliver_t_ = last_wake_t_ = 0;
  max_event_t_ = 0;
  first_wake_ = sim::kNever;
  violations_.clear();
  violation_count_ = 0;
}

void InvariantChecker::violation(const std::string& text) {
  ++violation_count_;
  if (violations_.size() < kMaxRecorded) violations_.push_back(text);
}

void InvariantChecker::on_send(sim::Time t, sim::NodeId from, sim::NodeId to,
                               const sim::Message& msg, Words) {
  std::ostringstream at;
  at << " (send " << from << "->" << to << " at t=" << t << ")";
  if (from >= model_.num_nodes || to >= model_.num_nodes) {
    violation("send endpoint out of range" + at.str());
    return;
  }
  if (t < (model_.synchronous ? last_send_t_ : last_event_t_)) {
    violation("send time regressed" + at.str());
  }
  last_send_t_ = t;
  if (!model_.synchronous) last_event_t_ = std::max(last_event_t_, t);
  max_event_t_ = std::max(max_event_t_, t);

  if (model_.congest_budget && msg.logical_bits() > *model_.congest_budget) {
    std::ostringstream os;
    os << "CONGEST budget exceeded: " << msg.logical_bits() << " > "
       << *model_.congest_budget << at.str();
    violation(os.str());
  }
  if (wake_time_[from] == sim::kNever || wake_time_[from] > t) {
    violation("send from a node that has not woken yet" + at.str());
  }

  in_flight_[channel_key(from, to)].push_back(t);
  ++sends_;
  bits_ += msg.logical_bits();
  ++sent_[from];
}

void InvariantChecker::on_deliver(sim::Time t, sim::NodeId from,
                                  sim::NodeId to, const sim::Message&, Words) {
  std::ostringstream at;
  at << " (deliver " << from << "->" << to << " at t=" << t << ")";
  if (from >= model_.num_nodes || to >= model_.num_nodes) {
    violation("delivery endpoint out of range" + at.str());
    return;
  }
  if (t < (model_.synchronous ? last_deliver_t_ : last_event_t_)) {
    violation("delivery time regressed" + at.str());
  }
  last_deliver_t_ = t;
  if (!model_.synchronous) last_event_t_ = std::max(last_event_t_, t);
  max_event_t_ = std::max(max_event_t_, t);

  const std::uint64_t key = channel_key(from, to);
  auto it = in_flight_.find(key);
  if (model_.sleeping && it != in_flight_.end()) {
    // Sleeping model: a send whose delivery window [send+1, send+tau] has
    // already closed can never match this or any later delivery (channels
    // are FIFO), so it must be one of the engine's sleep-drops. Retire it
    // from the queue instead of mis-pairing it with this delivery; the
    // finish() conservation check (deliveries + sleep_dropped == sends)
    // keeps the retired count honest against the engine's own counter.
    while (!it->second.empty() && it->second.front() + model_.tau < t) {
      it->second.pop_front();
    }
  }
  if (it == in_flight_.end() || it->second.empty()) {
    violation("delivery with no matching in-flight send" + at.str());
  } else {
    // FIFO matching: this delivery closes the oldest outstanding send.
    const sim::Time sent_at = it->second.front();
    it->second.pop_front();
    if (t < sent_at + 1 || t > sent_at + model_.tau) {
      std::ostringstream os;
      os << "causality violated: sent at t=" << sent_at << ", delivered at t="
         << t << ", outside [send+1, send+tau] with tau=" << model_.tau;
      violation(os.str());
    }
    auto [last_it, first_time] = channel_last_delivery_.try_emplace(key, t);
    if (!first_time) {
      if (t < last_it->second) {
        violation("FIFO violated: delivery overtakes an earlier one" +
                  at.str());
      }
      last_it->second = t;
    }
  }

  ++deliveries_;
  ++received_[to];
  last_delivery_to_[to] = t;
  earliest_delivery_to_[to] = std::min(earliest_delivery_to_[to], t);
}

void InvariantChecker::on_node_wake(sim::Time t, sim::NodeId node,
                                    sim::WakeCause cause) {
  std::ostringstream at;
  at << " (wake of node " << node << " at t=" << t << ")";
  if (node >= model_.num_nodes) {
    violation("wake of an out-of-range node" + at.str());
    return;
  }
  if (t < (model_.synchronous ? last_wake_t_ : last_event_t_)) {
    violation("wake time regressed" + at.str());
  }
  last_wake_t_ = t;
  if (!model_.synchronous) last_event_t_ = std::max(last_event_t_, t);
  max_event_t_ = std::max(max_event_t_, t);

  if (wake_time_[node] != sim::kNever) {
    violation("node woke twice" + at.str());
    return;
  }
  wake_time_[node] = t;
  first_wake_ = std::min(first_wake_, t);
  ++wakes_;

  if (cause == sim::WakeCause::kAdversary) {
    const auto it = scheduled_.find(node);
    if (it == scheduled_.end()) {
      violation("adversary wake of an unscheduled node" + at.str());
    } else if (it->second != t) {
      std::ostringstream os;
      os << "adversary wake at t=" << t << " but scheduled at t="
         << it->second << at.str();
      violation(os.str());
    }
  } else {
    // A message wake is triggered by the earliest delivery the node
    // receives, and happens at exactly that delivery's time. Both engines
    // trace every delivery dated <= t before a wake at t, so the earliest
    // delivery is final here (future-dated deliveries can already be in the
    // trace — the sync engine emits them at send time — but cannot lower
    // the minimum below t).
    if (earliest_delivery_to_[node] == sim::kNever) {
      violation("message wake with no delivery to the node" + at.str());
    } else if (earliest_delivery_to_[node] != t) {
      std::ostringstream os;
      os << "message wake at t=" << t
         << " but the node's earliest delivery is at t="
         << earliest_delivery_to_[node] << at.str();
      violation(os.str());
    }
  }
}

std::vector<std::string> InvariantChecker::finish(
    const sim::RunResult& result) {
  const sim::Metrics& m = result.metrics;
  auto expect_eq = [&](std::uint64_t reported, std::uint64_t observed,
                       const char* what) {
    if (reported != observed) {
      std::ostringstream os;
      os << what << " mismatch: metrics report " << reported
         << ", trace observed " << observed;
      violation(os.str());
    }
  };

  expect_eq(m.messages, sends_, "messages");
  expect_eq(m.bits, bits_, "bits");
  expect_eq(m.deliveries, deliveries_, "deliveries");
  if (m.deliveries > m.messages) {
    violation("conservation violated: deliveries > messages");
  }
  if (model_.sleeping) {
    // Sleeping-model conservation: every send is either delivered or dropped
    // at a declared-sleeping receiver, and the engine counts each drop.
    if (deliveries_ + m.sleep_dropped != sends_) {
      std::ostringstream os;
      os << "sleeping-model conservation violated: " << sends_
         << " sent != " << deliveries_ << " delivered + " << m.sleep_dropped
         << " dropped";
      violation(os.str());
    }
  } else if (deliveries_ != sends_) {
    std::ostringstream os;
    os << "undelivered messages: " << sends_
       << " sent, " << deliveries_ << " delivered";
    violation(os.str());
  }
  if (m.tau != model_.tau) {
    std::ostringstream os;
    os << "tau mismatch: metrics normalize by " << m.tau
       << ", the scenario declares " << model_.tau;
    violation(os.str());
  }

  std::uint64_t sent_sum = 0;
  for (std::uint32_t v : m.sent_per_node) sent_sum += v;
  expect_eq(sent_sum, m.messages, "sum(sent_per_node) vs messages");
  if (m.sent_per_node.size() != sent_.size() ||
      !std::equal(sent_.begin(), sent_.end(), m.sent_per_node.begin())) {
    violation("sent_per_node diverges from the observed trace");
  }
  if (m.received_per_node.size() != received_.size() ||
      !std::equal(received_.begin(), received_.end(),
                  m.received_per_node.begin())) {
    violation("received_per_node diverges from the observed trace");
  }

  if (result.wake_time != wake_time_) {
    violation("RunResult.wake_time diverges from the observed wake events");
  }
  // Every delivery wakes a sleeping receiver: no node may get its earliest
  // message strictly before its wake time (kNever == never woke).
  for (sim::NodeId u = 0; u < earliest_delivery_to_.size(); ++u) {
    if (earliest_delivery_to_[u] < wake_time_[u]) {
      std::ostringstream os;
      os << "node " << u << " received a message at t="
         << earliest_delivery_to_[u] << " but only woke at t=";
      if (wake_time_[u] == sim::kNever) {
        os << "never";
      } else {
        os << wake_time_[u];
      }
      violation(os.str());
    }
  }
  for (const auto& [node, t] : scheduled_) {
    if (node < wake_time_.size() &&
        (wake_time_[node] == sim::kNever || wake_time_[node] > t)) {
      std::ostringstream os;
      os << "node " << node << " scheduled to wake at t=" << t
         << " is not awake by then";
      violation(os.str());
    }
  }

  if (wakes_ > 0) {
    expect_eq(m.first_wake, first_wake_, "first_wake");
    expect_eq(m.last_wake, last_wake_t_, "last_wake");
  }
  if (deliveries_ > 0) {
    sim::Time max_deliver = 0;
    for (sim::Time t : last_delivery_to_) {
      if (t != sim::kNever) max_deliver = std::max(max_deliver, t);
    }
    expect_eq(m.last_delivery, max_deliver, "last_delivery");
  }

  // Derived measures recomputed from the trace alone.
  double expected_units = 0.0;
  if (first_wake_ != sim::kNever && max_event_t_ > first_wake_) {
    expected_units = static_cast<double>(max_event_t_ - first_wake_) /
                     static_cast<double>(model_.tau);
  }
  if (std::abs(m.time_units() - expected_units) > 1e-9) {
    std::ostringstream os;
    os << "time_units() inconsistent: reports " << m.time_units()
       << ", trace implies " << expected_units;
    violation(os.str());
  }
  if (result.all_awake()) {
    sim::Time lo = sim::kNever, hi = 0;
    for (sim::Time t : wake_time_) {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    if (result.wakeup_span() != hi - lo) {
      violation("wakeup_span() inconsistent with the observed wake times");
    }
  }

  if (violation_count_ > violations_.size()) {
    std::ostringstream os;
    os << "... and " << (violation_count_ - violations_.size())
       << " further violation(s) suppressed";
    violations_.push_back(os.str());
  }
  return violations_;
}

}  // namespace rise::check
