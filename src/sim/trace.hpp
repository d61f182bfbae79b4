// Execution-trace observation.
//
// A TraceSink receives every externally visible event of a run — sends,
// deliveries, wake-ups — without perturbing the execution. Used for:
//   * CSV export of full message traces (CsvTraceSink) for offline analysis,
//   * edge-usage sets (EdgeUsageSink), the primitive behind the Theorem-2
//     indistinguishability checker (lb/swap_checker),
//   * ad-hoc assertions in tests.
//
// Sinks observe; they cannot inject or alter anything, so a traced run is
// bit-identical to an untraced one.
#pragma once

#include <iosfwd>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "sim/types.hpp"

namespace rise::sim {

class TraceSink {
 public:
  using Words = std::span<const std::uint64_t>;

  virtual ~TraceSink() = default;

  /// `words` are msg's payload words, valid for the call only.
  virtual void on_send(Time t, NodeId from, NodeId to, const Message& msg,
                       Words words) = 0;
  virtual void on_deliver(Time t, NodeId from, NodeId to, const Message& msg,
                          Words words) = 0;
  virtual void on_node_wake(Time t, NodeId node, WakeCause cause) = 0;
};

/// Writes one CSV row per event: event,time,from,to,type,bits.
class CsvTraceSink final : public TraceSink {
 public:
  explicit CsvTraceSink(std::ostream& os);

  void on_send(Time t, NodeId from, NodeId to, const Message& msg,
               Words words) override;
  void on_deliver(Time t, NodeId from, NodeId to, const Message& msg,
                  Words words) override;
  void on_node_wake(Time t, NodeId node, WakeCause cause) override;

 private:
  std::ostream* os_;
};

/// Records the set of undirected edges that carried at least one message.
class EdgeUsageSink final : public TraceSink {
 public:
  void on_send(Time t, NodeId from, NodeId to, const Message& msg,
               Words words) override;
  void on_deliver(Time, NodeId, NodeId, const Message&, Words) override {}
  void on_node_wake(Time, NodeId, WakeCause) override {}

  const std::set<std::pair<NodeId, NodeId>>& used_edges() const {
    return edges_;
  }
  bool edge_used(NodeId a, NodeId b) const {
    return edges_.count(a < b ? std::make_pair(a, b)
                              : std::make_pair(b, a)) != 0;
  }

 private:
  std::set<std::pair<NodeId, NodeId>> edges_;
};

/// Fans every event out to several sinks, in the order given — the engines
/// accept a single TraceSink*, so observers that want to ride along with an
/// existing sink (e.g. the fuzzer's invariant checker next to a CSV export)
/// compose through this. Null entries are skipped.
class TeeTraceSink final : public TraceSink {
 public:
  TeeTraceSink() = default;
  explicit TeeTraceSink(std::vector<TraceSink*> sinks);

  void add(TraceSink* sink) { sinks_.push_back(sink); }

  void on_send(Time t, NodeId from, NodeId to, const Message& msg,
               Words words) override;
  void on_deliver(Time t, NodeId from, NodeId to, const Message& msg,
                  Words words) override;
  void on_node_wake(Time t, NodeId node, WakeCause cause) override;

 private:
  std::vector<TraceSink*> sinks_;
};

/// Counts events (cheap smoke-test sink).
class CountingSink final : public TraceSink {
 public:
  void on_send(Time, NodeId, NodeId, const Message&, Words) override {
    ++sends_;
  }
  void on_deliver(Time, NodeId, NodeId, const Message&, Words) override {
    ++deliveries_;
  }
  void on_node_wake(Time, NodeId, WakeCause cause) override {
    ++wakes_;
    if (cause == WakeCause::kAdversary) ++adversary_wakes_;
  }

  std::uint64_t sends() const { return sends_; }
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t wakes() const { return wakes_; }
  std::uint64_t adversary_wakes() const { return adversary_wakes_; }

 private:
  std::uint64_t sends_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t wakes_ = 0;
  std::uint64_t adversary_wakes_ = 0;
};

}  // namespace rise::sim
