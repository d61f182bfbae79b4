#include "store/result_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "support/check.hpp"
#include "support/json.hpp"

namespace rise::store {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kFrameMagic = 0x31'4C'53'52;  // "RSL1" little-endian
constexpr std::uint8_t kPayloadVersion = 1;
/// Frame header: magic + payload_len + key (hi, lo).
constexpr std::size_t kFrameHeader = 4 + 4 + 8 + 8;
/// Upper bound on one payload; anything larger is treated as corruption
/// (real payloads are a few hundred bytes — spec strings plus scalars).
constexpr std::uint32_t kMaxPayload = 1u << 20;
constexpr const char* kLogSuffix = ".rsl";

// ---- little-endian byte packing ------------------------------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_field(std::vector<std::uint8_t>& out, const std::string& s) {
  RISE_CHECK_MSG(s.size() < kMaxPayload, "store record string too large");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// One payload field at its own width: bools as one byte, doubles as their
/// IEEE-754 bits.
template <typename T>
void put_field(std::vector<std::uint8_t>& out, T v) {
  if constexpr (std::is_same_v<T, bool>) {
    out.push_back(v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, double>) {
    put_u64(out, std::bit_cast<std::uint64_t>(v));
  } else if constexpr (sizeof(T) == 4) {
    put_u32(out, v);
  } else {
    put_u64(out, v);
  }
}

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  /// Inverse of put_field.
  void field(std::string& s) {
    const std::uint32_t len = u32();
    RISE_CHECK_MSG(len <= kMaxPayload, "store record string length corrupt");
    need(len);
    s.assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
  }
  template <typename T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = u8() != 0;
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(u64());
    } else if constexpr (sizeof(T) == 4) {
      v = u32();
    } else {
      v = u64();
    }
  }
  bool exhausted() const { return pos_ == size_; }

 private:
  void need(std::size_t n) {
    RISE_CHECK_MSG(size_ - pos_ >= n, "store record payload truncated");
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::uint64_t frame_checksum(const Digest128& key,
                             const std::uint8_t* payload, std::size_t len) {
  std::vector<std::uint8_t> keybytes;
  keybytes.reserve(16);
  put_u64(keybytes, key.hi);
  put_u64(keybytes, key.lo);
  const std::uint64_t seed = fnv1a64(
      std::string_view(reinterpret_cast<const char*>(keybytes.data()), 16));
  return fnv1a64(
      std::string_view(reinterpret_cast<const char*>(payload), len), seed);
}

/// Commits `content` to `path` atomically: write a sibling temp file, then
/// rename over the target (rename(2) is atomic within a filesystem).
void write_file_atomic(const fs::path& path, const std::string& content) {
  const fs::path tmp =
      path.string() + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    RISE_CHECK_MSG(out.good(), "cannot write " << tmp.string());
    out << content;
    out.flush();
    RISE_CHECK_MSG(out.good(), "cannot write " << tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  RISE_CHECK_MSG(!ec, "cannot commit " << path.string() << ": "
                                       << ec.message());
}

std::string manifest_json() {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.kv("kind", "rise_result_store");
  w.kv("store_schema_version", kStoreSchemaVersion);
  w.end_object();
  os << '\n';
  return os.str();
}

/// Scans one log buffer; calls `sink(key, record)` for each well-formed
/// record, in file order. Returns the byte offset just past the last good
/// record (the truncation point for an owner with a torn tail).
template <typename Sink>
std::size_t scan_log(const std::string& bytes, Sink&& sink) {
  std::size_t pos = 0;
  while (bytes.size() - pos >= kFrameHeader + 8) {
    const auto* base = reinterpret_cast<const std::uint8_t*>(bytes.data());
    ByteReader header(base + pos, kFrameHeader);
    if (header.u32() != kFrameMagic) break;
    const std::uint32_t len = header.u32();
    if (len > kMaxPayload) break;
    Digest128 key;
    key.hi = header.u64();
    key.lo = header.u64();
    if (bytes.size() - pos - kFrameHeader < std::size_t{len} + 8) break;
    const std::uint8_t* payload = base + pos + kFrameHeader;
    ByteReader footer(payload + len, 8);
    if (footer.u64() != frame_checksum(key, payload, len)) break;
    TrialRecord record;
    try {
      record = decode_record(payload, len);
    } catch (const CheckError&) {
      break;
    }
    if (record_key(record) != key) break;  // content/key mismatch: corrupt
    sink(key, std::move(record));
    pos += kFrameHeader + len + 8;
  }
  return pos;
}

}  // namespace

TrialOutcome outcome_of(const app::ExperimentReport& report) {
  TrialOutcome o;
  o.ok = true;
  o.num_nodes = report.num_nodes;
  o.num_edges = report.num_edges;
  o.rho_awk = report.rho_awk;
  o.synchronous = report.synchronous;
  o.all_awake = report.result.all_awake();
  o.awake_count = report.result.awake_count();
  o.messages = report.result.metrics.messages;
  o.bits = report.result.metrics.bits;
  o.time_units = report.result.metrics.time_units();
  o.rounds = report.result.metrics.rounds;
  o.wakeup_span = o.all_awake ? report.result.wakeup_span() : 0;
  o.awake_node_ticks = report.result.awake_node_ticks();
  o.advice_max_bits = report.advice.max_bits;
  o.advice_avg_bits = report.advice.avg_bits;
  return o;
}

Digest128 record_key(const TrialRecord& r) {
  app::ExperimentSpec spec;
  spec.graph = r.graph;
  spec.schedule = r.schedule;
  spec.algorithm = r.algorithm;
  spec.delay = r.delay;
  spec.seed = r.seed;
  return trial_key(spec, r.prepare_tag);
}

/// Walks the payload layout: version byte, identity, ok, error, the shared
/// outcome scalars, wall_ms. `r` is const when encoding, mutable when
/// decoding; `field` writes or reads one member.
template <typename Record, typename Field>
void walk_payload(Record& r, Field&& field) {
  field(r.graph);
  field(r.schedule);
  field(r.algorithm);
  field(r.delay);
  field(r.seed);
  field(r.prepare_tag);
  field(r.ok);
  field(r.error);
  for_each_outcome_field(r, [&](const char*, auto& v) { field(v); });
  field(r.wall_ms);
}

std::vector<std::uint8_t> encode_record(const TrialRecord& r) {
  std::vector<std::uint8_t> out;
  out.reserve(128 + r.graph.size() + r.schedule.size() + r.algorithm.size() +
              r.delay.size() + r.error.size());
  out.push_back(kPayloadVersion);
  walk_payload(r, [&out](const auto& v) { put_field(out, v); });
  return out;
}

TrialRecord decode_record(const std::uint8_t* data, std::size_t size) {
  ByteReader in(data, size);
  const std::uint8_t version = in.u8();
  RISE_CHECK_MSG(version == kPayloadVersion,
                 "store record version " << int(version) << " unsupported");
  TrialRecord r;
  walk_payload(r, [&in](auto& v) { in.field(v); });
  RISE_CHECK_MSG(in.exhausted(), "store record has trailing bytes");
  return r;
}

ResultStore::ResultStore(const std::string& dir,
                         const std::string& writer_tag)
    : dir_(dir) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  RISE_CHECK_MSG(!ec, "cannot create store directory " << dir_ << ": "
                                                       << ec.message());

  const fs::path manifest = fs::path(dir_) / "manifest.json";
  if (fs::exists(manifest)) {
    std::ifstream in(manifest, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const json::Value doc = [&] {
      try {
        return json::parse(text.str());
      } catch (const CheckError&) {
        RISE_CHECK_MSG(false, "store manifest " << manifest.string()
                                                << " is not valid JSON");
        return json::Value{};
      }
    }();
    const json::Value* kind = doc.find("kind");
    RISE_CHECK_MSG(
        kind != nullptr && kind->string == "rise_result_store",
        manifest.string() << " does not belong to a rise result store");
    RISE_CHECK_MSG(
        doc.at("store_schema_version").u64 == kStoreSchemaVersion,
        "store " << dir_ << " has schema version "
                 << doc.at("store_schema_version").u64 << ", expected "
                 << kStoreSchemaVersion);
  } else {
    write_file_atomic(manifest, manifest_json());
  }

  if (!writer_tag.empty()) {
    log_path_ = (fs::path(dir_) / (writer_tag + kLogSuffix)).string();
  }

  // Load every log, own log included, in name order so duplicate keys
  // resolve deterministically (later file wins; within a file, later record
  // wins — i.e. the most recently appended version of a key).
  std::vector<std::string> logs;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == kLogSuffix) {
      logs.push_back(entry.path().string());
    }
  }
  std::sort(logs.begin(), logs.end());
  for (const std::string& path : logs) {
    load_log(path, path == log_path_);
  }

  if (!log_path_.empty()) {
    fd_ = ::open(log_path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                 0644);
    RISE_CHECK_MSG(fd_ >= 0, "cannot open store log "
                                 << log_path_ << " for append: "
                                 << std::strerror(errno));
  }
}

ResultStore::~ResultStore() {
  if (fd_ >= 0) ::close(fd_);
}

void ResultStore::load_log(const std::string& path, bool own_log) {
  std::ifstream in(path, std::ios::binary);
  RISE_CHECK_MSG(in.good(), "cannot read store log " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();

  ++recovery_.files;
  const std::size_t good = scan_log(bytes, [this](const Digest128& key,
                                                  TrialRecord&& record) {
    records_[key] = std::move(record);
    ++recovery_.records;
  });
  if (good < bytes.size()) {
    ++recovery_.torn_files;
    recovery_.torn_bytes += bytes.size() - good;
    if (own_log) {
      // Never append after garbage: cut our own log back to the last
      // well-formed record. Other writers' logs are left untouched — their
      // owners repair them on their own reopen.
      std::error_code ec;
      fs::resize_file(path, good, ec);
      RISE_CHECK_MSG(!ec, "cannot truncate torn store log " << path << ": "
                                                            << ec.message());
    }
  }
}

const TrialRecord* ResultStore::lookup(const Digest128& key,
                                       const app::ExperimentSpec& spec,
                                       const std::string& prepare_tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(key);
  if (it == records_.end()) return nullptr;
  const TrialRecord& r = it->second;
  // Verify identity so a 128-bit collision degrades to a miss.
  if (r.graph != spec.graph || r.schedule != spec.schedule ||
      r.algorithm != spec.algorithm || r.delay != spec.delay ||
      r.seed != spec.seed || r.prepare_tag != prepare_tag) {
    return nullptr;
  }
  return &r;
}

void ResultStore::append(const TrialRecord& r) {
  RISE_CHECK_MSG(fd_ >= 0,
                 "result store " << dir_ << " was opened read-only");
  const Digest128 key = record_key(r);
  const std::vector<std::uint8_t> payload = encode_record(r);

  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeader + payload.size() + 8);
  put_u32(frame, kFrameMagic);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u64(frame, key.hi);
  put_u64(frame, key.lo);
  frame.insert(frame.end(), payload.begin(), payload.end());
  put_u64(frame, frame_checksum(key, payload.data(), payload.size()));

  std::lock_guard<std::mutex> lock(mu_);
  // One write(2) per record to an O_APPEND descriptor: records from this
  // process land contiguously, and a crash tears at most this frame.
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
    RISE_CHECK_MSG(n > 0, "cannot append to store log "
                              << log_path_ << ": " << std::strerror(errno));
    off += static_cast<std::size_t>(n);
  }
  records_[key] = r;
}

std::size_t ResultStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::uint64_t ResultStore::count_records(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) return 0;
  std::uint64_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() != kLogSuffix) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in.good()) continue;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    scan_log(bytes, [&count](const Digest128&, TrialRecord&&) { ++count; });
  }
  return count;
}

}  // namespace rise::store
