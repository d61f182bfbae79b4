// Unit tests for the observability core (src/obs): log-bucketed histograms
// (boundary values 0 / 1 / max, merge algebra), probe counters and phase
// marks (attribution partitions the totals), RAII phase timers, profile
// JSON round trips through the repo's own parser, and deterministic
// aggregate merging.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "obs/histogram.hpp"
#include "obs/probe.hpp"
#include "obs/profile.hpp"
#include "sim/metrics.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace rise {
namespace {

constexpr std::uint64_t kMax = ~std::uint64_t{0};

// ---- LogHistogram -------------------------------------------------------

TEST(LogHistogram, BucketBoundaries) {
  // bucket 0 = {0}; bucket k = [2^(k-1), 2^k) — i.e. bit_width(v).
  EXPECT_EQ(obs::LogHistogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(4), 3u);
  for (unsigned k = 1; k < 64; ++k) {
    const std::uint64_t lo = std::uint64_t{1} << (k - 1);
    // Both edges of [2^(k-1), 2^k) land in bucket k.
    EXPECT_EQ(obs::LogHistogram::bucket_of(lo), k);
    EXPECT_EQ(obs::LogHistogram::bucket_of(2 * lo - 1), k);
    EXPECT_EQ(obs::LogHistogram::bucket_lo(k), lo);
    EXPECT_EQ(obs::LogHistogram::bucket_hi(k), 2 * lo - 1);
  }
  EXPECT_EQ(obs::LogHistogram::bucket_of(kMax), 64u);
  EXPECT_EQ(obs::LogHistogram::bucket_lo(64), std::uint64_t{1} << 63);
  EXPECT_EQ(obs::LogHistogram::bucket_hi(64), kMax);
  EXPECT_EQ(obs::LogHistogram::bucket_lo(0), 0u);
  EXPECT_EQ(obs::LogHistogram::bucket_hi(0), 0u);
}

TEST(LogHistogram, AddTracksExactStatsAlongsideBuckets) {
  obs::LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.min(), 0u);  // empty convention
  EXPECT_EQ(h.max(), 0u);
  h.add(0);
  h.add(1);
  h.add(kMax);
  h.add(6, 3);  // weighted add
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 1u + kMax + 18u);  // wraps; exact mod 2^64
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), kMax);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(3), 3u);  // 6 ∈ [4, 8)
  EXPECT_EQ(h.bucket_count(64), 1u);
  EXPECT_EQ(h.bucket_count(65), 0u);  // out of range reads as 0
  h.add(5, 0);                        // zero weight is a no-op
  EXPECT_EQ(h.count(), 6u);
}

TEST(LogHistogram, ApproxQuantileReturnsBucketLowerBounds) {
  obs::LogHistogram h;
  EXPECT_EQ(h.approx_quantile(0.5), 0u);  // empty
  for (int i = 0; i < 10; ++i) h.add(1);   // bucket 1
  for (int i = 0; i < 10; ++i) h.add(100); // bucket 7: [64, 128)
  EXPECT_EQ(h.approx_quantile(0.0), 1u);
  EXPECT_EQ(h.approx_quantile(0.5), 1u);
  EXPECT_EQ(h.approx_quantile(0.51), 64u);
  EXPECT_EQ(h.approx_quantile(1.0), 64u);
  EXPECT_EQ(h.approx_quantile(-1.0), 1u);  // clamped
  EXPECT_EQ(h.approx_quantile(2.0), 64u);
}

TEST(LogHistogram, MergeIsAssociativeAndCommutative) {
  auto make = [](std::uint64_t seed) {
    obs::LogHistogram h;
    // A few values spread over distinct buckets, derived from the seed so
    // the three operands differ.
    for (std::uint64_t i = 0; i < 8; ++i) h.add((seed + i) * (seed + i));
    if (seed % 2 == 0) h.add(0);
    if (seed % 3 == 0) h.add(kMax);
    return h;
  };
  const obs::LogHistogram a = make(2), b = make(5), c = make(9);

  obs::LogHistogram ab = a;
  ab.merge(b);
  obs::LogHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);  // commutative

  obs::LogHistogram ab_c = ab;
  ab_c.merge(c);
  obs::LogHistogram bc = b;
  bc.merge(c);
  obs::LogHistogram a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);  // associative

  obs::LogHistogram with_empty = a;
  with_empty.merge(obs::LogHistogram{});
  EXPECT_EQ(with_empty, a);  // empty is the identity (min/max preserved)
  obs::LogHistogram from_empty;
  from_empty.merge(a);
  EXPECT_EQ(from_empty, a);
}

// ---- Probe: counters, phases, classes -----------------------------------

TEST(Probe, CountersAccumulateAndReadBackZeroWhenAbsent) {
  obs::Probe probe;
  EXPECT_EQ(probe.counter("never"), 0u);
  probe.add_counter("x");
  probe.add_counter("x", 4);
  probe.add_counter("y", 2);
  EXPECT_EQ(probe.counter("x"), 5u);
  EXPECT_EQ(probe.counter("y"), 2u);
}

TEST(Probe, PhaseMarksCountTransitionsNotCalls) {
  obs::Probe probe;
  probe.attach_run(2);
  probe.mark_phase(0, "a");
  probe.mark_phase(0, "a");  // re-mark: no-op
  probe.mark_phase(0, "b");
  probe.mark_phase(1, "a");
  sim::RunResult result;
  result.metrics.sent_per_node = {0, 0};
  const obs::RunProfile p = probe.take_profile(result);
  ASSERT_EQ(p.phases.size(), 3u);
  EXPECT_EQ(p.phases[0].name, "(unphased)");
  const obs::PhaseProfile* a = p.find_phase("a");
  const obs::PhaseProfile* b = p.find_phase("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->marks, 2u);  // node 0 entered once, node 1 once
  EXPECT_EQ(b->marks, 1u);
  EXPECT_EQ(p.find_phase("c"), nullptr);
}

TEST(Probe, SendAttributionPartitionsTotals) {
  obs::Probe probe;
  probe.attach_run(3);
  // Node 0 sends unphased, then in "probing"; node 1 in "flooding" as a
  // "root"; node 2 never sends.
  probe.on_send(0, 8, 1);
  probe.mark_phase(0, "probing");
  probe.on_send(0, 16, 2);
  probe.on_send(0, 16, 5);
  probe.mark_phase(1, "flooding");
  probe.mark_class(1, "root");
  probe.on_send(1, 32, 3);

  sim::RunResult result;
  result.metrics.messages = 4;
  result.metrics.bits = 72;
  result.metrics.sent_per_node = {3, 1, 0};
  const obs::RunProfile p = probe.take_profile(result);

  EXPECT_EQ(p.phase_message_sum(), p.messages);
  EXPECT_EQ(p.phase_bit_sum(), p.bits);
  const obs::PhaseProfile* probing = p.find_phase("probing");
  ASSERT_NE(probing, nullptr);
  EXPECT_EQ(probing->messages, 2u);
  EXPECT_EQ(probing->bits, 32u);
  EXPECT_EQ(probing->first_send, 2u);
  EXPECT_EQ(probing->last_send, 5u);
  EXPECT_EQ(p.phases[0].messages, 1u);  // the pre-mark send

  ASSERT_EQ(p.classes.size(), 2u);
  EXPECT_EQ(p.classes[0].name, "node");
  EXPECT_EQ(p.classes[0].nodes, 2u);  // nodes 0 and 2
  EXPECT_EQ(p.classes[1].name, "root");
  EXPECT_EQ(p.classes[1].nodes, 1u);
  EXPECT_EQ(p.classes[1].messages, 1u);
  EXPECT_EQ(p.classes[1].sent_per_node.count(), 1u);
  EXPECT_EQ(p.classes[1].sent_per_node.max(), 1u);
}

TEST(Probe, NullNodeProbeIsANoOpHandle) {
  obs::NodeProbe null_probe;
  EXPECT_FALSE(null_probe.enabled());
  // Must not crash or allocate; these are the disabled-path calls the
  // <=2% overhead bench holds to.
  null_probe.phase("x");
  null_probe.node_class("y");
  null_probe.count("z", 10);

  obs::Probe probe;
  probe.attach_run(1);
  obs::NodeProbe live(&probe, 0);
  EXPECT_TRUE(live.enabled());
  live.count("z", 10);
  EXPECT_EQ(probe.counter("z"), 10u);
}

// ---- PhaseTimer ---------------------------------------------------------

TEST(PhaseTimer, AccumulatesCallsWallTimeAndSimTicks) {
  obs::Probe probe;
  for (int i = 0; i < 3; ++i) {
    obs::PhaseTimer t(&probe, "stage");
    t.set_sim_span(7);
  }
  { obs::PhaseTimer t(nullptr, "stage"); }  // null probe: nothing recorded
  sim::RunResult result;
  const obs::RunProfile p = probe.take_profile(result);
  ASSERT_EQ(p.timers.size(), 1u);
  EXPECT_EQ(p.timers[0].name, "stage");
  EXPECT_EQ(p.timers[0].calls, 3u);
  EXPECT_EQ(p.timers[0].sim_ticks, 21u);
  EXPECT_GE(p.timers[0].wall_seconds, 0.0);
}

// ---- JSON round trip ----------------------------------------------------

obs::RunProfile sample_profile() {
  obs::Probe probe;
  probe.attach_run(2);
  probe.set_backend("buckets");
  probe.mark_phase(0, "flood");
  probe.on_send(0, 64, 1);
  probe.on_send(0, 64, 2);
  probe.on_event_pop(5);
  probe.on_queue_push(6, 6, 0);
  probe.add_counter("flood.broadcasts", 2);
  sim::RunResult result;
  result.metrics.messages = 2;
  result.metrics.bits = 128;
  result.metrics.deliveries = 2;
  result.metrics.events = 3;
  result.metrics.sent_per_node = {2, 0};
  obs::RunProfile p = probe.take_profile(result);
  p.algorithm = "flooding";
  p.graph = "path:2";
  p.schedule = "single";
  p.delay = "unit";
  p.seed = kMax;  // 64-bit seeds must survive the round trip exactly
  p.num_nodes = 2;
  p.num_edges = 1;
  return p;
}

TEST(ProfileJson, RoundTripsThroughTheRepoParser) {
  obs::RunProfile p = sample_profile();
  p.timers.push_back({"engine.run", 1, 0.0125, 3});
  const std::string text = obs::profile_to_json(p);
  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.at("kind").string, "run_profile");
  EXPECT_EQ(doc.at("algorithm").string, "flooding");
  EXPECT_TRUE(doc.at("seed").is_integer);
  EXPECT_EQ(doc.at("seed").u64, kMax);
  EXPECT_EQ(doc.at("totals").at("messages").u64, 2u);
  EXPECT_EQ(doc.at("totals").at("bits").u64, 128u);
  // Phase records: "(unphased)" with no sends, then "flood" with both.
  const json::Value& phases = doc.at("phases");
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases.at(1).at("name").string, "flood");
  EXPECT_EQ(phases.at(1).at("messages").u64, 2u);
  EXPECT_TRUE(phases.at(0).at("first_send").is_null());  // no unphased sends
  EXPECT_EQ(doc.at("counters").at("flood.broadcasts").u64, 2u);
  EXPECT_EQ(doc.at("engine").at("backend").string, "buckets");

  // Determinism: serializing the same profile twice is byte-identical.
  EXPECT_EQ(text, obs::profile_to_json(p));

  // `rise_cli profile FILE` prints the parsed document exactly as the
  // in-process `--profile` print shows the profile (sync/async tag,
  // deliveries, classes and timers included).
  EXPECT_EQ(obs::format_profile_document(doc), obs::format_profile(p));
  EXPECT_EQ(obs::format_profile_document(doc, 1), obs::format_profile(p, 1));
  EXPECT_THROW(obs::format_profile_document(json::parse("{\"kind\":\"x\"}")),
               CheckError);
}

// ---- ProfileAggregate ---------------------------------------------------

TEST(ProfileAggregate, MergeSumsAndTracksPerTrialQuantiles) {
  obs::RunProfile a = sample_profile();
  obs::RunProfile b = sample_profile();
  b.messages = 6;
  b.phases[0].messages = 2;  // some unphased activity in trial two
  b.phases[1].messages = 4;
  b.time_units = 10.0;

  obs::ProfileAggregate agg;
  agg.merge(a);
  agg.merge(b);
  EXPECT_EQ(agg.trials, 2u);
  EXPECT_EQ(agg.messages, 8u);
  EXPECT_EQ(agg.messages_per_trial.count(), 2u);
  EXPECT_DOUBLE_EQ(agg.messages_per_trial.mean(), 4.0);
  ASSERT_EQ(agg.phases.size(), 2u);
  // Name-sorted: "(unphased)" < "flood".
  EXPECT_EQ(agg.phases[0].name, "(unphased)");
  EXPECT_EQ(agg.phases[1].name, "flood");
  EXPECT_EQ(agg.phases[1].messages, 6u);
  EXPECT_EQ(agg.phases[1].messages_per_trial.count(), 2u);
  EXPECT_EQ(agg.engine.backend, "buckets");

  const json::Value doc = json::parse(obs::aggregate_to_json(agg));
  EXPECT_EQ(doc.at("kind").string, "profile_aggregate");
  EXPECT_EQ(doc.at("trials").u64, 2u);
  const std::string pretty = obs::format_profile_document(doc, 1);
  EXPECT_NE(pretty.find("flood"), std::string::npos);
  EXPECT_NE(pretty.find("more"), std::string::npos);  // top-N overflow line
}

// `rise_cli profile FILE` on a profile_aggregate must print what the
// campaign printed for the same aggregate, and the pinned campaign print
// keeps every line: time units, per-trial awake and phase quantiles.
TEST(ProfileAggregate, DocumentPrintMatchesTheCampaignPrint) {
  obs::RunProfile a = sample_profile();
  obs::RunProfile b = sample_profile();
  b.messages = 6;
  b.phases[0].messages = 2;
  b.phases[1].messages = 4;
  b.time_units = 10.0;
  for (obs::RunProfile* p : {&a, &b}) {
    p->awake_rounds.add(3);
    p->awake_rounds.add(9);
    p->awake_total = 12;
    p->awake_max = 9;
    p->sleep_dropped = 1;
  }
  obs::ProfileAggregate agg;
  agg.merge(a);
  agg.merge(b);
  const json::Value doc = json::parse(obs::aggregate_to_json(agg));
  for (const std::size_t top_n : {std::size_t{8}, std::size_t{1}}) {
    SCOPED_TRACE(top_n);
    EXPECT_EQ(obs::format_profile_document(doc, top_n),
              obs::format_aggregate(agg, top_n));
  }
  EXPECT_EQ(obs::format_aggregate(agg),
            R"(profile aggregate over 2 trials
totals: messages=8 bits=256 events=6
messages/trial: mean=4.00 p50=6.00 p90=6.00 max=6.00
time_units: mean=5.00 p50=10.00 max=10.00
awake_rounds: total=24 p50=2 p90=8 max=9 sleep_dropped=2 max/trial p50=9.00
phases (by messages):
  flood              messages=6 bits=256 marks=2 per-trial p50=4.00 p90=4.00
  (unphased)         messages=2 bits=0 marks=0 per-trial p50=2.00 p90=2.00
counters:
  flood.broadcasts   4
engine: backend=buckets popped=2 queue_hw=6 rounds_stepped=0
)");
}

// The shard orchestrator rebuilds RunProfiles from the per-trial JSON that
// workers embed, then re-merges them. The parse must be a true inverse of
// profile_to_json, and merging parsed profiles must equal merging the
// originals bit for bit — otherwise merged profile aggregates would drift
// from single-process ones.
TEST(ProfileJson, ParseIsAnExactInverseOfSerialize) {
  const obs::RunProfile p = sample_profile();
  const obs::RunProfile back =
      obs::profile_from_json(json::parse(obs::profile_to_json(p)));
  // Serializing the parsed profile reproduces the original text exactly.
  EXPECT_EQ(obs::profile_to_json(back), obs::profile_to_json(p));
  EXPECT_EQ(back.seed, kMax);
  EXPECT_EQ(back.messages, p.messages);
  ASSERT_EQ(back.phases.size(), p.phases.size());
  EXPECT_EQ(back.phases[1].first_send, p.phases[1].first_send);
  EXPECT_EQ(back.phases[0].first_send, sim::kNever);  // null round-trips
  EXPECT_EQ(back.counters, p.counters);
  EXPECT_EQ(back.engine.backend, p.engine.backend);

  // Real sleeping-model profiles carry what the sample does not: awake
  // accounting with dropped messages, several node classes, the sync
  // engine's round_active histogram and timers. They round-trip too, and
  // the parsed document keeps the awake accounting consistent.
  for (const std::string algorithm : {"smis", "smatching"}) {
    SCOPED_TRACE(algorithm);
    app::ExperimentSpec spec;
    spec.algorithm = algorithm;
    spec.graph = "cgnp:144:0.0417";
    spec.schedule = "single";
    spec.seed = 7;
    const obs::RunProfile real = app::run_profiled(spec).profile;
    const std::string text = obs::profile_to_json(real);
    const obs::RunProfile parsed = obs::profile_from_json(json::parse(text));
    EXPECT_EQ(obs::profile_to_json(parsed), text);

    EXPECT_EQ(parsed.awake_rounds.count(), parsed.num_nodes);
    EXPECT_EQ(parsed.awake_rounds.sum(), parsed.awake_total);
    EXPECT_EQ(parsed.awake_rounds.max(), parsed.awake_max);
    EXPECT_EQ(parsed.deliveries + parsed.sleep_dropped, parsed.messages);
    EXPECT_GT(parsed.sleep_dropped, 0u);
    EXPECT_GT(parsed.classes.size(), 1u);
    EXPECT_EQ(parsed.engine.backend, "sync");
    EXPECT_EQ(parsed.engine.round_active.count(), real.engine.rounds_stepped);
    EXPECT_GT(parsed.engine.round_active.count(), 0u);
    ASSERT_EQ(parsed.timers.size(), real.timers.size());
    ASSERT_FALSE(parsed.timers.empty());
    for (std::size_t i = 0; i < real.timers.size(); ++i) {
      EXPECT_EQ(parsed.timers[i].name, real.timers[i].name);
      EXPECT_EQ(parsed.timers[i].wall_seconds, real.timers[i].wall_seconds);
      EXPECT_EQ(parsed.timers[i].sim_ticks, real.timers[i].sim_ticks);
    }
  }
}

TEST(ProfileJson, MergingParsedProfilesMatchesMergingOriginals) {
  obs::RunProfile a = sample_profile();
  obs::RunProfile b = sample_profile();
  b.messages = 6;
  b.phases[1].messages = 4;
  b.time_units = 10.0;

  obs::ProfileAggregate direct;
  direct.merge(a);
  direct.merge(b);

  obs::ProfileAggregate via_json;
  via_json.merge(obs::profile_from_json(json::parse(obs::profile_to_json(a))));
  via_json.merge(obs::profile_from_json(json::parse(obs::profile_to_json(b))));

  EXPECT_EQ(obs::aggregate_to_json(via_json), obs::aggregate_to_json(direct));
}

// A profile file is external input (`rise_cli profile FILE`): a value that
// overflows its field or has the wrong JSON type must be rejected, never
// truncated or read as 0. Absent optional members keep their defaults.
TEST(ProfileJson, ParseRejectsValuesThatDoNotFitTheirField) {
  EXPECT_THROW(obs::profile_from_json(json::parse(
                   R"({"kind": "run_profile", "num_nodes": 4294967299,
                       "totals": {}})")),
               CheckError);
  EXPECT_THROW(obs::profile_from_json(json::parse(
                   R"({"kind": "run_profile", "totals": {"messages": "lots"}})")),
               CheckError);
  EXPECT_THROW(obs::profile_from_json(json::parse(
                   R"({"kind": "run_profile", "seed": -1, "totals": {}})")),
               CheckError);
  EXPECT_THROW(obs::profile_from_json(json::parse(
                   R"({"kind": "run_profile", "totals": {},
                       "counters": {"flood.broadcasts": 2.5}})")),
               CheckError);
  EXPECT_THROW(obs::profile_from_json(json::parse(
                   R"({"kind": "run_profile", "totals": {}, "phases": {}})")),
               CheckError);

  const obs::RunProfile sparse = obs::profile_from_json(json::parse(
      R"({"kind": "run_profile", "num_nodes": 4294967295,
          "totals": {"messages": 5}})"));
  EXPECT_EQ(sparse.num_nodes, 4294967295u);
  EXPECT_EQ(sparse.messages, 5u);
  EXPECT_EQ(sparse.bits, 0u);
  EXPECT_TRUE(sparse.algorithm.empty());
  EXPECT_TRUE(sparse.phases.empty());
}

// The reader's member rules: `totals`, phase `message_bits` and class
// `sent_per_node` are required; every other member is optional, and a null
// first_send/last_send (a phase without sends) reads as the default.
TEST(ProfileJson, ParseKeepsRequiredAndOptionalMembers) {
  const auto parse = [](const std::string& text) {
    return obs::profile_from_json(json::parse(text));
  };
  EXPECT_THROW(parse(R"({"kind": "run_profile"})"), CheckError);
  EXPECT_THROW(parse(R"({"kind": "run_profile", "totals": 3})"), CheckError);
  EXPECT_THROW(parse(R"({"kind": "run_profile", "totals": {},
                         "phases": [{"name": "flood"}]})"),
               CheckError);
  EXPECT_THROW(parse(R"({"kind": "run_profile", "totals": {},
                         "classes": [{"name": "node"}]})"),
               CheckError);
  EXPECT_THROW(parse(R"({"kind": "run_profile", "totals": {},
                         "engine": {"round_active": 1}})"),
               CheckError);

  const obs::RunProfile p = parse(R"({"kind": "run_profile", "totals": {},
      "phases": [{"name": "a", "first_send": null, "last_send": null,
                  "message_bits": {}},
                 {"name": "b", "first_send": 4, "last_send": 9,
                  "message_bits": {"count": 1, "sum": 8, "min": 8,
                                   "max": 8, "buckets": [[8, 1]]}}],
      "classes": [{"sent_per_node": {}}],
      "engine": {"backend": "heap"},
      "timers": [{"name": "engine.run", "wall_seconds": 0.5}]})");
  ASSERT_EQ(p.phases.size(), 2u);
  EXPECT_EQ(p.phases[0].first_send, sim::kNever);
  EXPECT_EQ(p.phases[0].last_send, 0u);
  EXPECT_EQ(p.phases[1].first_send, 4u);
  EXPECT_EQ(p.phases[1].last_send, 9u);
  EXPECT_EQ(p.phases[1].message_bits.max(), 8u);
  ASSERT_EQ(p.classes.size(), 1u);
  EXPECT_EQ(p.classes[0].name, "");
  EXPECT_EQ(p.engine.backend, "heap");
  EXPECT_EQ(p.engine.round_active.count(), 0u);
  ASSERT_EQ(p.timers.size(), 1u);
  EXPECT_EQ(p.timers[0].wall_seconds, 0.5);
  EXPECT_EQ(p.timers[0].calls, 0u);
  EXPECT_EQ(p.awake_rounds.count(), 0u);
  EXPECT_TRUE(p.counters.empty());
}

TEST(ProfileJson, ParseRejectsForeignDocuments) {
  EXPECT_THROW(obs::profile_from_json(json::parse("{\"kind\":\"x\"}")),
               CheckError);
}

TEST(ProfileAggregate, BackendConflictReportsMixed) {
  obs::RunProfile a = sample_profile();
  obs::RunProfile b = sample_profile();
  b.engine.backend = "sync";
  obs::ProfileAggregate agg;
  agg.merge(a);
  agg.merge(b);
  EXPECT_EQ(agg.engine.backend, "mixed");
}

}  // namespace
}  // namespace rise
