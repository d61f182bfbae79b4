// Deterministic random number generation.
//
// Everything random in the library — node coin flips, adversary port
// permutations, ID permutations, delay jitter, workload generation — derives
// from a single 64-bit master seed through independent SplitMix64-derived
// streams, so that every experiment is exactly reproducible from its seed.
//
// Rng is xoshiro256++ (public-domain algorithm by Blackman & Vigna),
// reimplemented here; it satisfies std::uniform_random_bit_generator so it
// can drive <random> distributions as well.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace rise {

/// SplitMix64 step; used for seeding and for cheap stateless hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless mix of two values into a stream seed (for per-node streams).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// xoshiro256++ generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire-style
  /// rejection to avoid modulo bias.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform_real();

  /// Bernoulli trial.
  bool chance(double p);

  /// In-place Fisher-Yates shuffle: position i - 1 swaps with a uniform
  /// position below i, for i from the size down to 2.
  template <typename T>
  void shuffle(std::span<T> v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform(i)]);
    }
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    shuffle(std::span<T>(v));
  }

  /// A random permutation of [0, n): iota, then shuffle.
  std::vector<std::uint32_t> permutation(std::uint32_t n);

 private:
  std::uint64_t s_[4];
};

}  // namespace rise
