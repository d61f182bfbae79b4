#include "support/bitio.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace rise {

namespace {

std::uint64_t low_bits(std::uint64_t value, unsigned width) {
  return width >= 64 ? value : value & ((std::uint64_t{1} << width) - 1);
}

/// The low `width` bits of `value` in reverse order: swap adjacent bits,
/// pairs and nibbles, then bytes, and drop the 64 - width reversed zeros.
std::uint64_t reverse_low_bits(std::uint64_t value, unsigned width) {
  if (width == 0) return 0;
  std::uint64_t x = value;
  x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
  x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((x & 0x0F0F0F0F0F0F0F0FULL) << 4);
  return __builtin_bswap64(x) >> (64 - width);
}

}  // namespace

bool BitView::get(std::size_t i) const {
  RISE_DCHECK(i < size_);
  return (words_[i / 64] >> (i % 64)) & 1u;
}

std::uint64_t BitView::read_bits(std::size_t pos, unsigned width) const {
  RISE_DCHECK(width <= 64);
  RISE_CHECK_MSG(pos + width <= size_,
                 "bit read past end: pos=" << pos << " width=" << width
                                           << " size=" << size_);
  if (width == 0) return 0;
  const std::size_t word = pos / 64;
  const unsigned offset = static_cast<unsigned>(pos % 64);
  std::uint64_t out = words_[word] >> offset;
  if (offset + width > 64) out |= words_[word + 1] << (64 - offset);
  return low_bits(out, width);
}

bool BitView::operator==(const BitView& other) const {
  // Bits above the size are zero in every string, so whole words compare.
  const auto a = words();
  const auto b = other.words();
  return size_ == other.size_ && std::equal(a.begin(), a.end(), b.begin());
}

BitString::BitString(std::size_t size_bits)
    : words_((size_bits + 63) / 64, 0), size_(size_bits) {}

void BitString::set(std::size_t i, bool value) {
  RISE_DCHECK(i < size_);
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  if (value) {
    words_[i / 64] |= mask;
  } else {
    words_[i / 64] &= ~mask;
  }
}

void BitString::push_back(bool value) { append_bits(value ? 1u : 0u, 1); }

void BitString::append_bits(std::uint64_t value, unsigned width) {
  RISE_DCHECK(width <= 64);
  for (unsigned b = 0; b < width; ++b) {
    if (size_ % 64 == 0) words_.push_back(0);
    words_.back() |= ((value >> b) & 1u) << (size_ % 64);
    ++size_;
  }
}

void BitWriter::write_bits(std::uint64_t value, unsigned width) {
  RISE_DCHECK(width <= 64);
  if (width == 0) return;
  value = low_bits(value, width);
  const unsigned offset = static_cast<unsigned>(size_ % 64);
  if (offset == 0) {
    words_.push_back(value);
  } else {
    words_.back() |= value << offset;
    if (offset + width > 64) words_.push_back(value >> (64 - offset));
  }
  size_ += width;
}

void BitWriter::write_gamma(std::uint64_t value) {
  RISE_CHECK(value < ~std::uint64_t{0});
  const std::uint64_t v = value + 1;
  const unsigned len = static_cast<unsigned>(std::bit_width(v));
  // len-1 zeros, then the len bits of v starting from the MSB.
  write_bits(0, len - 1);
  write_bits(reverse_low_bits(v, len), len);
}

BitString BitWriter::take() {
  RISE_DCHECK(start_ == 0);
  BitString out;
  out.words_ = std::move(words_);
  out.size_ = size_;
  words_.clear();
  size_ = 0;
  return out;
}

void BitArena::reserve(std::size_t strings, std::size_t words) {
  offsets_.reserve(strings);
  sizes_.reserve(strings);
  writer_.words_.reserve(words);
}

void BitArena::close() {
  offsets_.push_back(writer_.start_ / 64);
  sizes_.push_back(writer_.size());
  writer_.size_ = writer_.words_.size() * 64;
  writer_.start_ = writer_.size_;
}

bool BitReader::read_bit() {
  RISE_CHECK_MSG(pos_ < bits_.size(), "bit read past end of advice");
  return bits_.get(pos_++);
}

std::uint64_t BitReader::read_bits(unsigned width) {
  const std::uint64_t out = bits_.read_bits(pos_, width);
  pos_ += width;
  return out;
}

std::uint64_t BitReader::read_gamma() {
  unsigned zeros = 0;
  while (!read_bit()) ++zeros;
  RISE_CHECK_MSG(zeros < 64, "gamma code longer than 64 bits");
  // The zeros + 1 bits of v, MSB first; the leading 1 is already read.
  const std::uint64_t v =
      (std::uint64_t{1} << zeros) | reverse_low_bits(read_bits(zeros), zeros);
  return v - 1;
}

unsigned bit_width_for(std::uint64_t n) {
  if (n <= 1) return 0;
  return static_cast<unsigned>(std::bit_width(n - 1));
}

unsigned gamma_bits(std::uint64_t value) {
  return 2 * static_cast<unsigned>(std::bit_width(value + 1)) - 1;
}

}  // namespace rise
