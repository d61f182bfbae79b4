#include "support/rng.hpp"

#include <bit>
#include <numeric>

#include "support/check.hpp"

namespace rise {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (0x6a09e667f3bcc909ULL + stream * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed) {
  // Seed the four xoshiro words from SplitMix64, per the reference seeding
  // recommendation; avoid the all-zero state.
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  RISE_CHECK(bound > 0);
  // Rejection sampling over the largest multiple of bound.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) {
  RISE_CHECK(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? (*this)() : uniform(span));
}

double Rng::uniform_real() {
  // 53 random mantissa bits.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_real() < p;
}

std::vector<std::uint32_t> Rng::permutation(std::uint32_t n) {
  std::vector<std::uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  shuffle(std::span<std::uint32_t>(p));
  return p;
}

}  // namespace rise
