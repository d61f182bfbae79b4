#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <span>
#include <vector>

namespace rise {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.uniform(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, 5 * std::sqrt(kSamples));
  }
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits, 30000, 800);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(17);
  const auto p = rng.permutation(100);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationIsShuffled) {
  Rng rng(19);
  const auto p = rng.permutation(1000);
  std::size_t fixed = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) fixed += (p[i] == i);
  EXPECT_LT(fixed, 20u);  // expectation is 1 fixed point
}

// permutation(n) is iota plus a span shuffle: same values, same draws, so
// code that shuffles into its own storage (Instance::create's ports)
// reproduces it.
TEST(Rng, PermutationIsIotaPlusSpanShuffle) {
  for (std::uint32_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    Rng a(23 + n);
    Rng b(23 + n);
    const auto p = a.permutation(n);
    std::vector<std::uint32_t> storage(n + 2, 99);
    const std::span<std::uint32_t> q(storage.data() + 1, n);
    std::iota(q.begin(), q.end(), 0u);
    b.shuffle(q);
    EXPECT_TRUE(std::equal(p.begin(), p.end(), q.begin(), q.end())) << n;
    EXPECT_EQ(storage.front(), 99u);
    EXPECT_EQ(storage.back(), 99u);
    EXPECT_EQ(a(), b()) << n;
  }
}

TEST(MixSeed, IndependentStreams) {
  // Streams for different nodes must differ.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t node = 0; node < 1000; ++node) {
    seeds.insert(mix_seed(42, node));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  EXPECT_NE(a, b);
  // Regression pin: stable across runs and platforms.
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
}

}  // namespace
}  // namespace rise
