#include "sim/trace.hpp"

#include <ostream>

namespace rise::sim {

CsvTraceSink::CsvTraceSink(std::ostream& os) : os_(&os) {
  *os_ << "event,time,from,to,type,bits\n";
}

void CsvTraceSink::on_send(Time t, NodeId from, NodeId to, const Message& msg,
                           Words) {
  *os_ << "send," << t << "," << from << "," << to << "," << msg.type << ","
       << msg.logical_bits() << "\n";
}

void CsvTraceSink::on_deliver(Time t, NodeId from, NodeId to,
                              const Message& msg, Words) {
  *os_ << "deliver," << t << "," << from << "," << to << "," << msg.type
       << "," << msg.logical_bits() << "\n";
}

void CsvTraceSink::on_node_wake(Time t, NodeId node, WakeCause cause) {
  *os_ << "wake," << t << "," << node << ",,"
       << (cause == WakeCause::kAdversary ? "adversary" : "message") << ",\n";
}

void EdgeUsageSink::on_send(Time, NodeId from, NodeId to, const Message&,
                            Words) {
  edges_.insert(from < to ? std::make_pair(from, to)
                          : std::make_pair(to, from));
}

TeeTraceSink::TeeTraceSink(std::vector<TraceSink*> sinks)
    : sinks_(std::move(sinks)) {}

void TeeTraceSink::on_send(Time t, NodeId from, NodeId to, const Message& msg,
                           Words words) {
  for (TraceSink* s : sinks_)
    if (s != nullptr) s->on_send(t, from, to, msg, words);
}

void TeeTraceSink::on_deliver(Time t, NodeId from, NodeId to,
                              const Message& msg, Words words) {
  for (TraceSink* s : sinks_)
    if (s != nullptr) s->on_deliver(t, from, to, msg, words);
}

void TeeTraceSink::on_node_wake(Time t, NodeId node, WakeCause cause) {
  for (TraceSink* s : sinks_)
    if (s != nullptr) s->on_node_wake(t, node, cause);
}

}  // namespace rise::sim
