// Host-speed reference for the benchmark's adjusted times.
//
// The benchmark runs on a share of a host whose speed drifts by tens of
// percent over minutes: other tenants load the shared caches and cores, and
// that slows every raw time alike, pure arithmetic included. A fixed
// breadth-first search, written here and independent of the simulator, is
// timed right before each timed sample. run.py scales the sample by
// nominal ÷ reference, so a slow minute slows both and largely cancels,
// while a change to the simulator moves only the sample. The graph (2^15
// nodes, out-degree 8, about 1.3 MB) fits a core's 2 MB L2 cache, like the
// workloads' working sets: data that spills into the shared L3 slows by up
// to 3x when neighbours load it, far more than anything L2-resident, so a
// larger reference over-corrects.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

class Reference {
 public:
  static constexpr std::uint32_t kNodes = 1u << 15;
  static constexpr std::uint32_t kDegree = 8;
  static constexpr int kReps = 5;

  Reference() : adj_(std::size_t{kNodes} * kDegree), dist_(kNodes), queue_(kNodes) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;  // fixed: never the run's seed
    for (auto& a : adj_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      a = static_cast<std::uint32_t>(x % kNodes);
    }
  }

  /// Median wall time of kReps searches, in milliseconds.
  double ms() {
    std::array<double, kReps> t{};
    for (double& ms : t) {
      const auto t0 = std::chrono::steady_clock::now();
      reached_ += search();
      ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
    }
    std::sort(t.begin(), t.end());
    return t[kReps / 2];
  }

  /// Nodes reached over all searches (keeps the work observable).
  std::uint64_t reached() const { return reached_; }

 private:
  std::uint32_t search() {
    constexpr std::uint32_t kUnseen = ~0u;
    std::fill(dist_.begin(), dist_.end(), kUnseen);
    std::size_t head = 0, tail = 0;
    dist_[0] = 0;
    queue_[tail++] = 0;
    while (head < tail) {
      const std::uint32_t v = queue_[head++];
      const std::uint32_t* out = adj_.data() + std::size_t{v} * kDegree;
      for (std::uint32_t e = 0; e < kDegree; ++e) {
        const std::uint32_t w = out[e];
        if (dist_[w] == kUnseen) {
          dist_[w] = dist_[v] + 1;
          queue_[tail++] = w;
        }
      }
    }
    return static_cast<std::uint32_t>(tail);
  }

  std::vector<std::uint32_t> adj_;  ///< kDegree out-neighbours per node
  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> queue_;
  std::uint64_t reached_ = 0;
};

}  // namespace perfbench
