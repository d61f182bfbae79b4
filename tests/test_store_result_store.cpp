// Tests for the content-addressed result store (src/store): digest keying,
// record codec round trips, append/lookup/reopen, torn-tail recovery, and
// multi-writer visibility. Failure injection uses the real on-disk layout —
// truncating and corrupting actual log files — because that is exactly what
// a SIGKILLed shard worker leaves behind.
#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "store/digest.hpp"
#include "support/check.hpp"

namespace rise::store {
namespace {

namespace fs = std::filesystem;

/// Fresh directory per test so stores never see each other's logs.
std::string test_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("rise_store_" + name);
  fs::remove_all(dir);
  return dir.string();
}

app::ExperimentSpec sample_spec(std::uint64_t seed) {
  app::ExperimentSpec spec;
  spec.graph = "path:8";
  spec.schedule = "single";
  spec.algorithm = "flooding";
  spec.delay = "unit";
  spec.seed = seed;
  return spec;
}

TrialRecord sample_record(std::uint64_t seed) {
  TrialRecord r;
  const app::ExperimentSpec spec = sample_spec(seed);
  r.graph = spec.graph;
  r.schedule = spec.schedule;
  r.algorithm = spec.algorithm;
  r.delay = spec.delay;
  r.seed = seed;
  r.prepare_tag = prepare_tag_per_trial();
  r.ok = true;
  r.num_nodes = 8;
  r.num_edges = 7;
  r.rho_awk = 2;
  r.synchronous = false;
  r.all_awake = true;
  r.awake_count = 8;
  r.messages = 14 + seed;
  r.bits = 140 + seed;
  r.time_units = 7.5;
  r.rounds = 9;
  r.wakeup_span = 7;
  r.awake_node_ticks = 31;
  r.advice_max_bits = 3;
  r.advice_avg_bits = 1.25;
  r.result_digest = 0x1234'5678'9ABC'DEF0ull ^ seed;
  r.wall_ms = 0.25;
  return r;
}

std::string solo_log(const std::string& dir) { return dir + "/solo.rsl"; }

TEST(StoreDigest, KeyIsPureAndInputSensitive) {
  const app::ExperimentSpec spec = sample_spec(7);
  const Digest128 key = trial_key(spec, prepare_tag_per_trial());
  EXPECT_EQ(key, trial_key(spec, prepare_tag_per_trial()));

  // Every identity component must perturb the key.
  app::ExperimentSpec other = spec;
  other.seed = 8;
  EXPECT_NE(key, trial_key(other, prepare_tag_per_trial()));
  other = spec;
  other.graph = "path:9";
  EXPECT_NE(key, trial_key(other, prepare_tag_per_trial()));
  other = spec;
  other.schedule = "all";
  EXPECT_NE(key, trial_key(other, prepare_tag_per_trial()));
  other = spec;
  other.algorithm = "ranked_dfs";
  EXPECT_NE(key, trial_key(other, prepare_tag_per_trial()));
  other = spec;
  other.delay = "fixed:3";
  EXPECT_NE(key, trial_key(other, prepare_tag_per_trial()));

  // Shared-config preparation must never alias per-trial records, and the
  // base seed is part of the shared tag.
  EXPECT_NE(key, trial_key(spec, prepare_tag_shared(1)));
  EXPECT_NE(trial_key(spec, prepare_tag_shared(1)),
            trial_key(spec, prepare_tag_shared(2)));
}

TEST(StoreDigest, CanonicalJsonIsCompactAndOrdered) {
  EXPECT_EQ(canonical_trial_json(sample_spec(7), prepare_tag_per_trial()),
            "{\"graph\":\"path:8\",\"schedule\":\"single\","
            "\"algo\":\"flooding\",\"delay\":\"unit\",\"seed\":7,"
            "\"prepare\":\"per_trial\"}");
}

TEST(StoreDigest, FormatDigestIs32HexDigits) {
  const std::string text = format_digest(Digest128{0x0123, 0xABCD});
  EXPECT_EQ(text.size(), 2u + 32u);
  EXPECT_EQ(text.substr(0, 2), "0x");
}

TEST(StoreCodec, RecordRoundTripsThroughEncodeDecode) {
  const TrialRecord r = sample_record(42);
  const std::vector<std::uint8_t> payload = encode_record(r);
  const TrialRecord back = decode_record(payload.data(), payload.size());
  EXPECT_EQ(back.graph, r.graph);
  EXPECT_EQ(back.schedule, r.schedule);
  EXPECT_EQ(back.algorithm, r.algorithm);
  EXPECT_EQ(back.delay, r.delay);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.prepare_tag, r.prepare_tag);
  EXPECT_EQ(back.ok, r.ok);
  EXPECT_EQ(back.error, r.error);
  EXPECT_EQ(back.num_nodes, r.num_nodes);
  EXPECT_EQ(back.num_edges, r.num_edges);
  EXPECT_EQ(back.rho_awk, r.rho_awk);
  EXPECT_EQ(back.synchronous, r.synchronous);
  EXPECT_EQ(back.all_awake, r.all_awake);
  EXPECT_EQ(back.awake_count, r.awake_count);
  EXPECT_EQ(back.messages, r.messages);
  EXPECT_EQ(back.bits, r.bits);
  EXPECT_EQ(back.time_units, r.time_units);
  EXPECT_EQ(back.rounds, r.rounds);
  EXPECT_EQ(back.wakeup_span, r.wakeup_span);
  EXPECT_EQ(back.awake_node_ticks, r.awake_node_ticks);
  EXPECT_EQ(back.advice_max_bits, r.advice_max_bits);
  EXPECT_EQ(back.advice_avg_bits, r.advice_avg_bits);
  EXPECT_EQ(back.result_digest, r.result_digest);
  EXPECT_EQ(back.wall_ms, r.wall_ms);
  EXPECT_EQ(record_key(back), record_key(r));
}

TEST(StoreCodec, ErrorRecordsRoundTripToo) {
  TrialRecord r = sample_record(3);
  r.ok = false;
  r.error = "graph spec 'path:8' exploded";
  const std::vector<std::uint8_t> payload = encode_record(r);
  const TrialRecord back = decode_record(payload.data(), payload.size());
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, r.error);
}

// The payload is on-disk state: a store written by an earlier binary must
// still be served from cache, so the encoded bytes are pinned (as fnv1a64
// digests) for an ok and an error record.
TEST(StoreCodec, PayloadBytesArePinned) {
  const auto payload_digest = [](const TrialRecord& r) {
    const std::vector<std::uint8_t> payload = encode_record(r);
    return fnv1a64(std::string_view(
        reinterpret_cast<const char*>(payload.data()), payload.size()));
  };
  EXPECT_EQ(payload_digest(sample_record(42)), 0x493A'A6E4'D4EF'C1D9ull);
  TrialRecord error = sample_record(3);
  error.ok = false;
  error.error = "graph spec 'path:8' exploded";
  EXPECT_EQ(payload_digest(error), 0xE2E6'0BC5'B759'1B1Dull);
}

TEST(StoreCodec, DecodeRejectsTruncatedPayload) {
  const std::vector<std::uint8_t> payload = encode_record(sample_record(1));
  EXPECT_THROW(decode_record(payload.data(), payload.size() - 1), CheckError);
  EXPECT_THROW(decode_record(payload.data(), 2), CheckError);
}

TEST(ResultStoreTest, AppendLookupAndReopen) {
  const std::string dir = test_dir("append_lookup");
  {
    ResultStore store(dir, "solo");
    EXPECT_EQ(store.size(), 0u);
    store.append(sample_record(1));
    store.append(sample_record(2));
    EXPECT_EQ(store.size(), 2u);
    const TrialRecord* hit = store.lookup(
        record_key(sample_record(1)), sample_spec(1), prepare_tag_per_trial());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->messages, sample_record(1).messages);
  }
  // Reopen: both records recovered, no torn tails.
  ResultStore store(dir, "solo");
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.recovery().files, 1u);
  EXPECT_EQ(store.recovery().records, 2u);
  EXPECT_EQ(store.recovery().torn_files, 0u);
  const TrialRecord* hit = store.lookup(
      record_key(sample_record(2)), sample_spec(2), prepare_tag_per_trial());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result_digest, sample_record(2).result_digest);
}

TEST(ResultStoreTest, LookupDemotesIdentityMismatchToMiss) {
  const std::string dir = test_dir("collision");
  ResultStore store(dir, "solo");
  store.append(sample_record(1));
  // Right key, wrong identity — as a 128-bit collision would present.
  const Digest128 key = record_key(sample_record(1));
  EXPECT_EQ(store.lookup(key, sample_spec(9), prepare_tag_per_trial()),
            nullptr);
  EXPECT_EQ(store.lookup(key, sample_spec(1), prepare_tag_shared(1)), nullptr);
  EXPECT_NE(store.lookup(key, sample_spec(1), prepare_tag_per_trial()),
            nullptr);
}

TEST(ResultStoreTest, TornTailIsSkippedOnReadAndTruncatedByOwner) {
  const std::string dir = test_dir("torn_tail");
  {
    ResultStore store(dir, "solo");
    store.append(sample_record(1));
    store.append(sample_record(2));
    store.append(sample_record(3));
  }
  // Tear the tail record, as a crash mid-write(2) would.
  const std::uintmax_t full = fs::file_size(solo_log(dir));
  fs::resize_file(solo_log(dir), full - 5);

  {
    // A read-only observer skips the torn tail but must not repair it.
    ResultStore reader(dir, "");
    EXPECT_EQ(reader.size(), 2u);
    EXPECT_EQ(reader.recovery().torn_files, 1u);
    EXPECT_GT(reader.recovery().torn_bytes, 0u);
    EXPECT_EQ(fs::file_size(solo_log(dir)), full - 5);
  }
  {
    // The owner truncates its own torn tail, then appends cleanly after it.
    ResultStore owner(dir, "solo");
    EXPECT_EQ(owner.size(), 2u);
    EXPECT_EQ(owner.recovery().torn_files, 1u);
    EXPECT_LT(fs::file_size(solo_log(dir)), full - 5);
    owner.append(sample_record(3));
    owner.append(sample_record(4));
  }
  ResultStore store(dir, "solo");
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.recovery().torn_files, 0u);
}

TEST(ResultStoreTest, GarbageMidFileStopsTheScanThere) {
  const std::string dir = test_dir("garbage");
  {
    ResultStore store(dir, "solo");
    store.append(sample_record(1));
    store.append(sample_record(2));
  }
  // Flip one payload byte of the first record: its checksum fails, and the
  // scan must stop — everything after an unreadable frame is untrusted
  // (lengths can no longer be believed).
  {
    std::fstream f(solo_log(dir),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);
    f.put('\xFF');
  }
  ResultStore store(dir, "");
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.recovery().torn_files, 1u);
}

TEST(ResultStoreTest, WritersSeeEachOthersCommittedRecords) {
  const std::string dir = test_dir("cross_writer");
  {
    ResultStore shard0(dir, "shard-0");
    shard0.append(sample_record(1));
  }
  ResultStore shard1(dir, "shard-1");
  // shard-1 loads shard-0's log at open, and appends to its own.
  EXPECT_EQ(shard1.size(), 1u);
  shard1.append(sample_record(2));
  EXPECT_TRUE(fs::exists(dir + "/shard-0.rsl"));
  EXPECT_TRUE(fs::exists(dir + "/shard-1.rsl"));

  ResultStore reader(dir, "");
  EXPECT_EQ(reader.size(), 2u);
  EXPECT_EQ(reader.recovery().files, 2u);
}

TEST(ResultStoreTest, ReadOnlyStoreRejectsAppend) {
  const std::string dir = test_dir("read_only");
  ResultStore store(dir, "");
  EXPECT_THROW(store.append(sample_record(1)), CheckError);
}

TEST(ResultStoreTest, ForeignManifestIsRejected) {
  const std::string dir = test_dir("foreign_manifest");
  fs::create_directories(dir);
  std::ofstream(dir + "/manifest.json")
      << "{\"kind\": \"something_else\"}\n";
  EXPECT_THROW(ResultStore(dir, "solo"), CheckError);

  const std::string dir2 = test_dir("bad_version");
  fs::create_directories(dir2);
  std::ofstream(dir2 + "/manifest.json")
      << "{\"kind\": \"rise_result_store\", \"store_schema_version\": 999}\n";
  EXPECT_THROW(ResultStore(dir2, "solo"), CheckError);

  const std::string dir3 = test_dir("manifest_junk");
  fs::create_directories(dir3);
  std::ofstream(dir3 + "/manifest.json") << "not json";
  EXPECT_THROW(ResultStore(dir3, "solo"), CheckError);
}

TEST(ResultStoreTest, UnwritableDirectoryFailsWithPathInMessage) {
  // A path under a regular file can never become a directory.
  const std::string blocker = test_dir("blocker_file");
  std::ofstream(blocker) << "x";
  const std::string dir = blocker + "/store";
  try {
    ResultStore store(dir, "solo");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
        << "message should name the path: " << e.what();
  }
}

TEST(ResultStoreTest, CountRecordsScansAllLogsAndToleratesTears) {
  const std::string dir = test_dir("count_records");
  EXPECT_EQ(ResultStore::count_records(dir), 0u);
  {
    ResultStore shard0(dir, "shard-0");
    shard0.append(sample_record(1));
    shard0.append(sample_record(2));
  }
  {
    ResultStore shard1(dir, "shard-1");
    shard1.append(sample_record(3));
  }
  EXPECT_EQ(ResultStore::count_records(dir), 3u);
  fs::resize_file(dir + "/shard-0.rsl",
                  fs::file_size(dir + "/shard-0.rsl") - 3);
  EXPECT_EQ(ResultStore::count_records(dir), 2u);
}

TEST(ResultStoreTest, DuplicateKeysResolveToTheLatestRecord) {
  const std::string dir = test_dir("duplicate_keys");
  {
    ResultStore store(dir, "solo");
    TrialRecord first = sample_record(1);
    first.messages = 100;
    store.append(first);
    TrialRecord second = sample_record(1);
    second.messages = 200;
    store.append(second);
    EXPECT_EQ(store.size(), 1u);
  }
  ResultStore store(dir, "");
  const TrialRecord* hit = store.lookup(
      record_key(sample_record(1)), sample_spec(1), prepare_tag_per_trial());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->messages, 200u);
}

}  // namespace
}  // namespace rise::store
