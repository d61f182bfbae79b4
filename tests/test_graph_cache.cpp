// The mmap graph cache must round-trip any graph bit-exactly and fail fast
// on every corrupted or mismatched header field — a stale or foreign cache
// file standing in silently for a different topology would poison every
// digest downstream.
#include "graph/cache.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "support/check.hpp"

namespace rise::graph {
namespace {

class CacheFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "rise_graph_cache_test.rgc";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Overwrites `count` bytes at `offset` in the cache file.
  void corrupt(std::size_t offset, const std::string& bytes) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

bool same_graph(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  return a.edge_list() == b.edge_list();
}

TEST_F(CacheFile, RoundTripsGeneratedGraph) {
  Rng rng(11);
  const Graph g = connected_gnp(200, 0.03, rng);
  write_cache(path_, g, "cgnp:200:0.03");
  const Graph loaded = load_cache(path_, "cgnp:200:0.03");
  EXPECT_TRUE(same_graph(g, loaded));
  // Degree / adjacency accessors work off the mapped arrays.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(loaded.degree(u), g.degree(u));
  }
  // Copies share the mapping and outlive the original.
  Graph copy = loaded;
  EXPECT_TRUE(same_graph(g, copy));
}

TEST_F(CacheFile, RoundTripsEmptyAndTinyGraphs) {
  const Graph empty = Graph::from_edges(3, {});
  write_cache(path_, empty, "empty");
  EXPECT_EQ(load_cache(path_, "empty").num_edges(), 0u);
  const Graph p = path(2);
  write_cache(path_, p, "path:2");
  EXPECT_TRUE(same_graph(p, load_cache(path_)));  // empty expected_spec: any
}

TEST_F(CacheFile, RejectsMissingFile) {
  EXPECT_THROW(load_cache(path_, "x"), CheckError);
}

TEST_F(CacheFile, RejectsBadMagic) {
  write_cache(path_, path(5), "path:5");
  corrupt(0, "NOTAGRPH");
  EXPECT_THROW(load_cache(path_, "path:5"), CheckError);
}

TEST_F(CacheFile, RejectsVersionMismatch) {
  write_cache(path_, path(5), "path:5");
  corrupt(8, std::string("\xff\x00\x00\x00", 4));
  EXPECT_THROW(load_cache(path_, "path:5"), CheckError);
}

TEST_F(CacheFile, RejectsEndiannessMismatch) {
  write_cache(path_, path(5), "path:5");
  // A big-endian writer lays the 0x01020304 marker down as 01 02 03 04;
  // native little-endian stores 04 03 02 01.
  corrupt(12, std::string("\x01\x02\x03\x04", 4));
  EXPECT_THROW(load_cache(path_, "path:5"), CheckError);
}

TEST_F(CacheFile, RejectsSpecMismatch) {
  write_cache(path_, path(5), "path:5");
  EXPECT_THROW(load_cache(path_, "path:6"), CheckError);
}

TEST_F(CacheFile, RejectsTruncatedFile) {
  write_cache(path_, path(50), "path:50");
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  contents.resize(contents.size() / 2);
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();
  EXPECT_THROW(load_cache(path_, "path:50"), CheckError);
}

// write_cache renames a finished temporary file into place, so writers
// racing on one path (shard workers building the same cache: spec) leave a
// complete file and no temporaries, and a failed write leaves nothing.
class CacheDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("rise_graph_cache_dir_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::string> entries() const {
    std::vector<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      names.push_back(e.path().filename().string());
    }
    return names;
  }

  std::filesystem::path dir_;
};

TEST_F(CacheDir, BackToBackWritersLeaveALoadableFileAndNoTemporaries) {
  const std::string file = (dir_ / "g.rgc").string();
  Rng rng(5);
  const Graph first = connected_gnp(300, 0.02, rng);
  const Graph second = connected_gnp(300, 0.02, rng);
  write_cache(file, first, "cgnp:300:0.02");
  const Graph mapped = load_cache(file, "cgnp:300:0.02");
  write_cache(file, second, "cgnp:300:0.02");
  EXPECT_TRUE(same_graph(second, load_cache(file, "cgnp:300:0.02")));
  // A mapping taken before the replacement keeps the old contents.
  EXPECT_TRUE(same_graph(first, mapped));
  EXPECT_EQ(entries(), std::vector<std::string>{"g.rgc"});
}

TEST_F(CacheDir, ConcurrentWritersLeaveALoadableFile) {
  const std::string file = (dir_ / "g.rgc").string();
  Rng rng(6);
  const Graph g = connected_gnp(2000, 0.004, rng);
  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&] { write_cache(file, g, "cgnp:2000:0.004"); });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_TRUE(same_graph(g, load_cache(file, "cgnp:2000:0.004")));
  EXPECT_EQ(entries(), std::vector<std::string>{"g.rgc"});
}

TEST_F(CacheDir, FailedWriteLeavesNothing) {
  const std::string file = (dir_ / "missing" / "g.rgc").string();
  EXPECT_THROW(write_cache(file, path(5), "path:5"), CheckError);
  EXPECT_TRUE(entries().empty());
}

}  // namespace
}  // namespace rise::graph
