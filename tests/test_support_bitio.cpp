#include "support/bitio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace rise {
namespace {

TEST(BitString, PushAndGet) {
  BitString b;
  EXPECT_TRUE(b.empty());
  b.push_back(true);
  b.push_back(false);
  b.push_back(true);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_TRUE(b.get(0));
  EXPECT_FALSE(b.get(1));
  EXPECT_TRUE(b.get(2));
}

TEST(BitString, SetClears) {
  BitString b(10);
  EXPECT_EQ(b.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_FALSE(b.get(i));
  b.set(7, true);
  EXPECT_TRUE(b.get(7));
  b.set(7, false);
  EXPECT_FALSE(b.get(7));
}

TEST(BitString, AppendAndReadBitsRoundTrip) {
  BitString b;
  b.append_bits(0b1011'0110, 8);
  b.append_bits(0x123456789ABCDEFull, 60);
  EXPECT_EQ(b.read_bits(0, 8), 0b1011'0110u);
  EXPECT_EQ(b.read_bits(8, 60), 0x123456789ABCDEFull);
}

TEST(BitString, CrossesWordBoundary) {
  BitString b;
  b.append_bits(0, 60);
  b.append_bits(0b1111, 4);    // ends exactly at 64
  b.append_bits(0b1010101, 7); // crosses into the next word
  EXPECT_EQ(b.read_bits(60, 4), 0b1111u);
  EXPECT_EQ(b.read_bits(64, 7), 0b1010101u);
}

TEST(BitString, Equality) {
  BitString a, b;
  a.append_bits(0xDEAD, 16);
  b.append_bits(0xDEAD, 16);
  EXPECT_EQ(a, b);
  b.push_back(true);
  EXPECT_FALSE(a == b);
}

TEST(BitString, ReadPastEndThrows) {
  BitString b;
  b.append_bits(3, 2);
  EXPECT_THROW(b.read_bits(1, 2), CheckError);
}

TEST(Gamma, SmallValues) {
  BitWriter w;
  for (std::uint64_t v = 0; v < 40; ++v) w.write_gamma(v);
  BitReader r(w.bits());
  for (std::uint64_t v = 0; v < 40; ++v) EXPECT_EQ(r.read_gamma(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(Gamma, EncodedLengthIsLogarithmic) {
  // gamma(v) uses 2*floor(log2(v+1)) + 1 bits.
  BitWriter w;
  w.write_gamma(0);
  EXPECT_EQ(w.size(), 1u);
  BitWriter w2;
  w2.write_gamma(1);
  EXPECT_EQ(w2.size(), 3u);
  BitWriter w3;
  w3.write_gamma(1023);  // v+1 = 1024 = 2^10 -> 21 bits
  EXPECT_EQ(w3.size(), 21u);
  EXPECT_EQ(gamma_bits(0), 1u);
  EXPECT_EQ(gamma_bits(1), 3u);
  EXPECT_EQ(gamma_bits(1023), 21u);
  // The largest value: a 64-bit v = value + 1 after 63 zeros.
  const std::uint64_t top = ~std::uint64_t{0} - 1;
  BitWriter w4;
  w4.write_bit(true);  // off the word boundary
  w4.write_gamma(top);
  EXPECT_EQ(w4.size(), 1u + gamma_bits(top));
  BitReader r(w4.bits());
  EXPECT_TRUE(r.read_bit());
  EXPECT_EQ(r.read_gamma(), top);
  EXPECT_TRUE(r.exhausted());
}

TEST(Gamma, RandomRoundTrip) {
  Rng rng(42);
  std::vector<std::uint64_t> values;
  BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform(std::uint64_t{1} << 40);
    values.push_back(v);
    w.write_gamma(v);
  }
  BitReader r(w.bits());
  for (std::uint64_t v : values) EXPECT_EQ(r.read_gamma(), v);
}

TEST(BitReaderWriter, MixedFieldsRoundTrip) {
  BitWriter w;
  w.write_bit(true);
  w.write_bits(0x2A, 6);
  w.write_gamma(1234);
  w.write_bit(false);
  w.write_bits(7, 3);
  BitReader r(w.bits());
  EXPECT_TRUE(r.read_bit());
  EXPECT_EQ(r.read_bits(6), 0x2Au);
  EXPECT_EQ(r.read_gamma(), 1234u);
  EXPECT_FALSE(r.read_bit());
  EXPECT_EQ(r.read_bits(3), 7u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitReader, ReadPastEndThrows) {
  BitString b;
  b.push_back(true);
  BitReader r(b);
  r.read_bit();
  EXPECT_THROW(r.read_bit(), CheckError);
}

// The word-at-a-time writer and the arena keep the bit-at-a-time layout:
// random fields of width 0..64 (crossing word boundaries, some strings
// empty) give each arena string exactly the size and words of a BitString
// built by append_bits, and read back through a BitView.
TEST(BitArena, StringsMatchBitStringsWordForWord) {
  Rng rng(77);
  struct Field {
    std::uint64_t value;
    unsigned width;
  };
  std::vector<std::vector<Field>> strings(40);
  BitArena arena;
  std::vector<BitString> expected;
  for (auto& fields : strings) {
    const auto count = rng.uniform(6);  // 0: an empty string
    BitString bits;
    for (std::uint64_t f = 0; f < count; ++f) {
      const auto width = static_cast<unsigned>(rng.uniform(65));
      const std::uint64_t value = rng();  // bits above width are ignored
      fields.push_back({value, width});
      arena.writer().write_bits(value, width);
      bits.append_bits(value, width);
    }
    EXPECT_EQ(arena.writer().size(), bits.size());
    arena.close();
    expected.push_back(std::move(bits));
  }
  ASSERT_EQ(arena.size(), strings.size());
  for (std::size_t i = 0; i < strings.size(); ++i) {
    const BitView view = arena[i];
    ASSERT_EQ(view.size(), expected[i].size()) << i;
    EXPECT_TRUE(std::equal(view.words().begin(), view.words().end(),
                           expected[i].words().begin(),
                           expected[i].words().end()))
        << i;
    EXPECT_TRUE(view == BitView(expected[i])) << i;
    BitReader r(view);
    for (const Field& f : strings[i]) {
      const std::uint64_t mask =
          f.width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << f.width) - 1;
      EXPECT_EQ(r.read_bits(f.width), f.value & mask) << i;
    }
    EXPECT_TRUE(r.exhausted()) << i;
  }
}

TEST(BitWidthFor, Values) {
  EXPECT_EQ(bit_width_for(0), 0u);
  EXPECT_EQ(bit_width_for(1), 0u);
  EXPECT_EQ(bit_width_for(2), 1u);
  EXPECT_EQ(bit_width_for(3), 2u);
  EXPECT_EQ(bit_width_for(4), 2u);
  EXPECT_EQ(bit_width_for(5), 3u);
  EXPECT_EQ(bit_width_for(1024), 10u);
  EXPECT_EQ(bit_width_for(1025), 11u);
}

}  // namespace
}  // namespace rise
