#include "graph/cache.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "support/check.hpp"

namespace rise::graph {

namespace {

constexpr char kMagic[8] = {'R', 'I', 'S', 'E', 'G', 'R', 'P', 'H'};
constexpr std::uint32_t kEndianMarker = 0x01020304;
constexpr std::size_t kHeaderBytes = 40;  // magic + version + endian + n + m + spec_len

std::size_t padded(std::size_t len) { return (len + 7) & ~std::size_t{7}; }

/// An open read-only mapping; destroying the last Graph copy unmaps it.
struct Mapping {
  const void* base = nullptr;
  std::size_t size = 0;

  ~Mapping() {
    if (base != nullptr) ::munmap(const_cast<void*>(base), size);
  }
};

void write_all(std::FILE* f, const void* data, std::size_t bytes,
               const std::string& path) {
  if (bytes == 0) return;  // an empty graph's arrays may be null
  RISE_CHECK_MSG(std::fwrite(data, 1, bytes, f) == bytes,
                 "graph cache: short write to " << path);
}

}  // namespace

void write_cache(const std::string& path, const Graph& g,
                 const std::string& spec) {
  // Write a temporary file in the same directory, then rename it into
  // place. rename(2) is atomic within a filesystem, so concurrent writers
  // of one path (shard workers building the same cache: spec) never expose
  // a torn file; the last rename wins with a complete one.
  static std::atomic<std::uint64_t> writes{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(writes.fetch_add(1));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                        0666);
  RISE_CHECK_MSG(fd >= 0, "graph cache: cannot open " << tmp << " for writing: "
                                                      << std::strerror(errno));
  std::FILE* f = ::fdopen(fd, "wb");
  if (f == nullptr) {
    ::close(fd);
    std::remove(tmp.c_str());
    RISE_CHECK_MSG(false, "graph cache: cannot open " << tmp << " for writing");
  }
  try {
    const std::uint64_t n = g.num_nodes();
    const std::uint64_t m = g.num_edges();
    const std::uint64_t spec_len = spec.size();
    write_all(f, kMagic, sizeof(kMagic), tmp);
    const std::uint32_t version = kCacheVersion;
    const std::uint32_t endian = kEndianMarker;
    write_all(f, &version, sizeof(version), tmp);
    write_all(f, &endian, sizeof(endian), tmp);
    write_all(f, &n, sizeof(n), tmp);
    write_all(f, &m, sizeof(m), tmp);
    write_all(f, &spec_len, sizeof(spec_len), tmp);
    write_all(f, spec.data(), spec.size(), tmp);
    const char pad[8] = {};
    write_all(f, pad, padded(spec.size()) - spec.size(), tmp);
    write_all(f, g.offsets_data(), (static_cast<std::size_t>(n) + 1) * 8, tmp);
    write_all(f, g.adjacency_data(), static_cast<std::size_t>(m) * 2 * 4, tmp);
    const int closed = std::fclose(f);
    f = nullptr;
    RISE_CHECK_MSG(closed == 0, "graph cache: close failed for " << tmp);
    RISE_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                   "graph cache: cannot rename " << tmp << " to " << path
                                                 << ": "
                                                 << std::strerror(errno));
  } catch (...) {
    if (f != nullptr) std::fclose(f);
    std::remove(tmp.c_str());
    throw;
  }
}

Graph load_cache(const std::string& path, const std::string& expected_spec) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  RISE_CHECK_MSG(fd >= 0, "graph cache: cannot open " << path << ": "
                                                      << std::strerror(errno));
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    RISE_CHECK_MSG(false, "graph cache: stat failed for " << path);
  }
  const std::size_t file_size = static_cast<std::size_t>(st.st_size);
  if (file_size < kHeaderBytes) {
    ::close(fd);
    RISE_CHECK_MSG(false, "graph cache: " << path << " is truncated ("
                                          << file_size << " bytes)");
  }
  void* base = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  RISE_CHECK_MSG(base != MAP_FAILED, "graph cache: mmap failed for " << path);
  auto mapping = std::make_shared<Mapping>();
  mapping->base = base;
  mapping->size = file_size;

  const auto* bytes = static_cast<const unsigned char*>(base);
  RISE_CHECK_MSG(std::memcmp(bytes, kMagic, sizeof(kMagic)) == 0,
                 "graph cache: " << path << " is not a rise graph cache "
                                 << "(bad magic)");
  std::uint32_t version = 0;
  std::uint32_t endian = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t spec_len = 0;
  std::memcpy(&version, bytes + 8, 4);
  std::memcpy(&endian, bytes + 12, 4);
  std::memcpy(&n, bytes + 16, 8);
  std::memcpy(&m, bytes + 24, 8);
  std::memcpy(&spec_len, bytes + 32, 8);
  RISE_CHECK_MSG(version == kCacheVersion,
                 "graph cache: " << path << " has format version " << version
                                 << ", this build reads version "
                                 << kCacheVersion << " — rebuild the cache");
  RISE_CHECK_MSG(endian == kEndianMarker,
                 "graph cache: " << path << " was written on a machine with "
                                 << "different endianness — rebuild the cache");
  RISE_CHECK_MSG(n <= kInvalidNode,
                 "graph cache: " << path << " node count overflows NodeId");
  // Bound m and spec_len by the file size so the size arithmetic below
  // cannot wrap.
  RISE_CHECK_MSG(m <= file_size / 8 && spec_len <= file_size,
                 "graph cache: " << path << " has " << file_size
                                 << " bytes, too few for m=" << m
                                 << " and a " << spec_len << "-byte spec");
  const std::size_t spec_off = kHeaderBytes;
  const std::size_t offsets_off = spec_off + padded(spec_len);
  const std::size_t adjacency_off =
      offsets_off + (static_cast<std::size_t>(n) + 1) * 8;
  const std::size_t expected_size =
      adjacency_off + static_cast<std::size_t>(m) * 2 * 4;
  RISE_CHECK_MSG(file_size >= spec_off + spec_len && file_size == expected_size,
                 "graph cache: " << path << " has " << file_size
                                 << " bytes, expected " << expected_size
                                 << " for n=" << n << " m=" << m);
  const std::string spec(reinterpret_cast<const char*>(bytes + spec_off),
                         spec_len);
  RISE_CHECK_MSG(expected_spec.empty() || spec == expected_spec,
                 "graph cache: " << path << " was built from spec '" << spec
                                 << "', not '" << expected_spec
                                 << "' — delete it to rebuild");
  const auto* offsets =
      reinterpret_cast<const std::uint64_t*>(bytes + offsets_off);
  const auto* adjacency =
      reinterpret_cast<const NodeId*>(bytes + adjacency_off);
  return Graph::from_csr_view(static_cast<NodeId>(n), m, offsets, adjacency,
                              std::move(mapping));
}

bool cache_file_exists(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace rise::graph
