#include "app/spec.hpp"

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "support/check.hpp"

namespace rise::app {
namespace {

TEST(GraphSpec, KnownFamilies) {
  Rng rng(1);
  EXPECT_EQ(parse_graph_spec("path:10", rng).num_nodes(), 10u);
  EXPECT_EQ(parse_graph_spec("cycle:8", rng).num_edges(), 8u);
  EXPECT_EQ(parse_graph_spec("star:5", rng).degree(0), 4u);
  EXPECT_EQ(parse_graph_spec("complete:6", rng).num_edges(), 15u);
  EXPECT_EQ(parse_graph_spec("grid:3x4", rng).num_nodes(), 12u);
  EXPECT_EQ(parse_graph_spec("torus:3x3", rng).num_nodes(), 9u);
  EXPECT_EQ(parse_graph_spec("hypercube:4", rng).num_nodes(), 16u);
  EXPECT_EQ(parse_graph_spec("tree:20", rng).num_edges(), 19u);
  EXPECT_EQ(parse_graph_spec("regular:12:3", rng).max_degree(), 3u);
  EXPECT_EQ(parse_graph_spec("lollipop:5:5", rng).num_nodes(), 10u);
  EXPECT_EQ(parse_graph_spec("pendant:10", rng).degree(9), 1u);
  EXPECT_EQ(parse_graph_spec("ba:100:2", rng).num_nodes(), 100u);
  EXPECT_EQ(parse_graph_spec("dkq:3:3", rng).num_nodes(), 54u);
  EXPECT_EQ(parse_graph_spec("kt0family:8", rng).num_nodes(), 24u);
  EXPECT_EQ(parse_graph_spec("kt1family:3:3", rng).num_nodes(), 81u);
}

TEST(GraphSpec, GnpIsSeedDriven) {
  Rng a(1), b(1), c(2);
  const auto g1 = parse_graph_spec("cgnp:50:0.1", a);
  const auto g2 = parse_graph_spec("cgnp:50:0.1", b);
  const auto g3 = parse_graph_spec("cgnp:50:0.1", c);
  EXPECT_EQ(g1.edge_list(), g2.edge_list());
  EXPECT_NE(g1.edge_list(), g3.edge_list());
}

TEST(GraphSpec, Errors) {
  Rng rng(1);
  EXPECT_THROW(parse_graph_spec("nope:3", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("path", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("grid:3", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("gnp:10:x", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("", rng), CheckError);
}

// Counts and ids that do not fit a NodeId (or unsigned) fail instead of
// wrapping: path:2^32+1 used to build a one-node path, and grid:65537x65537
// overflowed r*c and hung.
TEST(GraphSpec, OversizedNumbersFailInsteadOfWrapping) {
  Rng rng(1);
  EXPECT_THROW(parse_graph_spec("path:4294967297", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("path:4294967295", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("path:-1", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("gnp:4294967297:0.5", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("regular:10:4294967299", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("grid:65537x65537", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("torus:4294967299x3", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("hypercube:4294967300", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("dkq:4294967299:3", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("cache:/nonexistent-dir/g.bin:path:4294967297",
                                rng),
               CheckError);
  const auto g = parse_graph_spec("path:10", rng);
  EXPECT_THROW(parse_schedule_spec("single:4294967303", g, rng), CheckError);
  EXPECT_THROW(parse_schedule_spec("set:1,4294967299", g, rng), CheckError);
}

// Spec numbers are decimal digits only: stoull took a sign or a leading
// blank, and read "-1" as 2^64 - 1 in the fields with no narrower bound
// (slow's ONE_IN, gossip's round budget).
TEST(Spec, NumbersAreDecimalDigitsOnly) {
  Rng rng(1);
  EXPECT_THROW(parse_delay_spec("slow:4:-1", 1), CheckError);
  EXPECT_THROW(parse_algorithm_spec("gossip:-1"), CheckError);
  EXPECT_THROW(parse_graph_spec("path:+8", rng), CheckError);
  EXPECT_THROW(parse_graph_spec("path: 8", rng), CheckError);
  EXPECT_THROW(parse_delay_spec("fixed:0x10", 1), CheckError);
  EXPECT_EQ(parse_graph_spec("path:08", rng).num_nodes(), 8u);
}

TEST(ScheduleSpec, Kinds) {
  Rng rng(1);
  const auto g = parse_graph_spec("path:10", rng);
  EXPECT_EQ(parse_schedule_spec("single", g, rng).wakes.size(), 1u);
  EXPECT_EQ(parse_schedule_spec("single:7", g, rng).wakes[0].second, 7u);
  EXPECT_EQ(parse_schedule_spec("all", g, rng).wakes.size(), 10u);
  EXPECT_EQ(parse_schedule_spec("set:1,3,5", g, rng).wakes.size(), 3u);
  EXPECT_GE(parse_schedule_spec("random:0.5", g, rng).wakes.size(), 1u);
  EXPECT_EQ(parse_schedule_spec("staggered:5:2", g, rng).wakes.size(), 10u);
  EXPECT_GE(parse_schedule_spec("dominating", g, rng).wakes.size(), 3u);
  const auto family = parse_graph_spec("kt0family:8", rng);
  EXPECT_EQ(parse_schedule_spec("centers", family, rng).all_nodes(),
            (std::vector<graph::NodeId>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ScheduleSpec, Errors) {
  Rng rng(1);
  const auto g = parse_graph_spec("path:4", rng);
  EXPECT_THROW(parse_schedule_spec("single:9", g, rng), CheckError);
  EXPECT_THROW(parse_schedule_spec("set:", g, rng), CheckError);
  EXPECT_THROW(parse_schedule_spec("bogus", g, rng), CheckError);
  EXPECT_THROW(parse_schedule_spec("centers", g, rng), CheckError);
}

TEST(DelaySpec, Kinds) {
  EXPECT_EQ(parse_delay_spec("unit", 1)->max_delay(), 1u);
  EXPECT_EQ(parse_delay_spec("fixed:9", 1)->max_delay(), 9u);
  EXPECT_EQ(parse_delay_spec("random:12", 1)->max_delay(), 12u);
  EXPECT_EQ(parse_delay_spec("slow:30:4", 1)->max_delay(), 30u);
  EXPECT_EQ(parse_delay_spec("congestion:5", 1)->max_delay(), 5u);
  EXPECT_THROW(parse_delay_spec("warp:3", 1), CheckError);
}

TEST(AlgorithmSpec, ModelsAreCorrect) {
  EXPECT_EQ(parse_algorithm_spec("flooding").knowledge, sim::Knowledge::KT0);
  EXPECT_EQ(parse_algorithm_spec("ranked_dfs").knowledge,
            sim::Knowledge::KT1);
  EXPECT_TRUE(parse_algorithm_spec("fast_wakeup").synchronous);
  EXPECT_FALSE(parse_algorithm_spec("cen").synchronous);
  EXPECT_NE(parse_algorithm_spec("fip06").oracle, nullptr);
  EXPECT_EQ(parse_algorithm_spec("flooding").oracle, nullptr);
  EXPECT_NE(parse_algorithm_spec("spanner:3").oracle, nullptr);
  EXPECT_THROW(parse_algorithm_spec("spanner"), CheckError);
  EXPECT_THROW(parse_algorithm_spec("does_not_exist"), CheckError);
}

// Algorithm parameters narrower than 64 bits fail instead of wrapping:
// ttl:2^32+1 used to run as ttl:1 and spanner:2^32+2 as k = 2.
TEST(AlgorithmSpec, OversizedParametersFailInsteadOfWrapping) {
  EXPECT_THROW(parse_algorithm_spec("ttl:4294967297"), CheckError);
  EXPECT_THROW(parse_algorithm_spec("spanner:4294967298"), CheckError);
  EXPECT_THROW(parse_algorithm_spec("beta:4294967297"), CheckError);
  EXPECT_THROW(parse_algorithm_spec("ttl:-1"), CheckError);
  EXPECT_NO_THROW(parse_algorithm_spec("ttl:4294967295"));
}

TEST(AlgorithmSpec, CatalogEntriesAllParse) {
  for (std::string name : algorithm_names()) {
    // Replace grammar placeholders by concrete values.
    for (const auto& [from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"BUDGET", "5"}, {"R", "2"}, {"K", "3"}, {"B", "4"}}) {
      const auto pos = name.find(from);
      if (pos != std::string::npos) name.replace(pos, from.size(), to);
    }
    EXPECT_NO_THROW(parse_algorithm_spec(name)) << name;
  }
}

class EndToEndSpec : public ::testing::TestWithParam<const char*> {};

TEST_P(EndToEndSpec, RunsAndWakesEveryone) {
  ExperimentSpec spec;
  spec.graph = "cgnp:120:0.05";
  spec.schedule = "random:0.2";
  spec.algorithm = GetParam();
  spec.delay = "random:3";
  spec.seed = 5;
  const auto report = run_experiment(spec);
  EXPECT_TRUE(report.result.all_awake()) << GetParam();
  EXPECT_GT(report.result.metrics.messages, 0u);
  const std::string text = format_report(report);
  EXPECT_NE(text.find("all nodes awake"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Algos, EndToEndSpec,
                         ::testing::Values("flooding", "ranked_dfs",
                                           "ranked_dfs_congest", "leader",
                                           "fast_wakeup", "fip06", "sqrt",
                                           "cen", "cen_chain", "spanner:2",
                                           "cor2"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == ':') c = '_';
                           }
                           return name;
                         });

// An NIH solver must answer at every center once every center wakes at time
// 0; ttl:0 sends nothing, so no center hears back. A schedule that leaves a
// center asleep is not checked.
TEST(EndToEnd, NihAnswersAreCheckedWhenEveryCenterWakes) {
  ExperimentSpec spec;
  spec.graph = "kt1family:3:3";  // 27 centers, m = 108
  spec.algorithm = "nih:ttl:0";
  spec.schedule = "centers";
  EXPECT_THROW(run_experiment(spec), CheckError);
  spec.schedule = "set:0,1";
  EXPECT_NO_THROW(run_experiment(spec));
  spec.algorithm = "nih:ttl:1";
  spec.schedule = "centers";
  EXPECT_EQ(run_experiment(spec).result.metrics.messages, 108u + 27u);
}

TEST(EndToEnd, DeterministicGivenSeed) {
  ExperimentSpec spec;
  spec.graph = "cgnp:80:0.06";
  spec.schedule = "staggered:5:2";
  spec.algorithm = "ranked_dfs";
  spec.seed = 9;
  const auto a = run_experiment(spec);
  const auto b = run_experiment(spec);
  EXPECT_EQ(a.result.metrics.messages, b.result.metrics.messages);
  EXPECT_EQ(a.result.wake_time, b.result.wake_time);
}

}  // namespace
}  // namespace rise::app
