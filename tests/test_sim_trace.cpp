#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "algo/flooding.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace rise::sim {
namespace {

TEST(TraceSink, CountingSinkMatchesMetrics) {
  Rng rng(1);
  const auto g = graph::connected_gnp(40, 0.1, rng);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  CountingSink sink;
  const auto delays = unit_delay();
  const auto result = run_async(inst, *delays, wake_single(0), 1,
                                algo::flooding_kernel(), {}, &sink);
  EXPECT_EQ(sink.sends(), result.metrics.messages);
  EXPECT_EQ(sink.deliveries(), result.metrics.deliveries);
  EXPECT_EQ(sink.wakes(), 40u);
  EXPECT_EQ(sink.adversary_wakes(), 1u);
}

TEST(TraceSink, LockStepEventsAreObserved) {
  const auto g = graph::path(4);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  CountingSink sink;
  const auto result =
      run_sync(inst, wake_single(0), 1, algo::flooding_kernel(), {}, &sink);
  EXPECT_EQ(sink.sends(), result.metrics.messages);
  EXPECT_EQ(sink.wakes(), 4u);
}

TEST(TraceSink, TracingDoesNotPerturbTheRun) {
  Rng rng(2);
  const auto g = graph::connected_gnp(50, 0.08, rng);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  const auto delays = random_delay(5, 77);
  CountingSink sink;
  const auto traced = run_async(inst, *delays, wake_single(3), 9,
                                algo::flooding_kernel(), {}, &sink);
  const auto untraced = run_async(inst, *delays, wake_single(3), 9,
                                  algo::flooding_kernel());
  EXPECT_EQ(traced.wake_time, untraced.wake_time);
  EXPECT_EQ(traced.metrics.messages, untraced.metrics.messages);
}

TEST(TraceSink, EdgeUsageSinkSeesFloodedEdges) {
  const auto g = graph::cycle(6);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  EdgeUsageSink sink;
  const auto delays = unit_delay();
  run_async(inst, *delays, wake_single(0), 1, algo::flooding_kernel(), {},
            &sink);
  EXPECT_EQ(sink.used_edges().size(), 6u);  // flooding touches every edge
  EXPECT_TRUE(sink.edge_used(0, 1));
  EXPECT_TRUE(sink.edge_used(5, 0));
  EXPECT_FALSE(sink.edge_used(0, 3));  // not an edge at all
}

TEST(TraceSink, TeeFansOutToEverySinkAndSkipsNulls) {
  const auto g = graph::cycle(5);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  CountingSink a, b;
  TeeTraceSink tee({&a, nullptr, &b});
  EdgeUsageSink edges;
  tee.add(&edges);
  const auto delays = unit_delay();
  const auto result = run_async(inst, *delays, wake_single(0), 1,
                                algo::flooding_kernel(), {}, &tee);
  EXPECT_EQ(a.sends(), result.metrics.messages);
  EXPECT_EQ(b.sends(), a.sends());
  EXPECT_EQ(b.wakes(), 5u);
  EXPECT_EQ(edges.used_edges().size(), 5u);
}

TEST(TraceSink, CsvSinkEmitsWellFormedRows) {
  const auto g = graph::path(3);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  std::ostringstream os;
  CsvTraceSink sink(os);
  const auto delays = unit_delay();
  run_async(inst, *delays, wake_single(0), 1, algo::flooding_kernel(), {},
            &sink);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("event,time,from,to,type,bits"), std::string::npos);
  EXPECT_NE(csv.find("wake,0,0,,adversary,"), std::string::npos);
  EXPECT_NE(csv.find("send,0,0,1,"), std::string::npos);
  EXPECT_NE(csv.find("deliver,1,0,1,"), std::string::npos);
  // One header + (wakes + sends + deliveries) rows.
  const auto rows = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, 1u + 3 + 4 + 4);
}

}  // namespace
}  // namespace rise::sim
