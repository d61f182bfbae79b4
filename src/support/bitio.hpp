// Bit-exact strings and streaming readers/writers.
//
// The paper measures advice length in *bits* (Table 1 reports maximum and
// average advice per node), so advising schemes encode their advice through
// this module rather than through byte-oriented containers. BitWriter /
// BitReader provide fixed-width fields plus Elias-gamma coded unsigned
// integers for self-delimiting variable-length values.
//
// Every bit string here has one layout: bit i is bit i % 64 of word i / 64,
// and the bits of the last word above the size are zero. BitString owns its
// words, BitArena packs many strings into one word array, and BitView reads
// either without copying.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rise {

class BitString;

/// A read-only view of `size` bits in the shared layout. It does not own
/// the words: it stays valid while the BitString or BitArena it views
/// lives and is not written.
class BitView {
 public:
  BitView() = default;
  BitView(const std::uint64_t* words, std::size_t size_bits)
      : words_(words), size_(size_bits) {}
  BitView(const BitString& bits);  // NOLINT: implicit, views any BitString

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const;

  /// Reads `width` <= 64 bits starting at `pos`, LSB first; CheckError past
  /// the end.
  std::uint64_t read_bits(std::size_t pos, unsigned width) const;

  /// The ceil(size / 64) words holding the bits.
  std::span<const std::uint64_t> words() const {
    return {words_, (size_ + 63) / 64};
  }

  bool operator==(const BitView& other) const;

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t size_ = 0;
};

/// A dynamically sized string of bits that owns its words.
class BitString {
 public:
  BitString() = default;
  explicit BitString(std::size_t size_bits);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const { return BitView(*this).get(i); }
  void set(std::size_t i, bool value);

  /// Appends a single bit.
  void push_back(bool value);

  /// Appends the `width` low-order bits of `value`, LSB first.
  void append_bits(std::uint64_t value, unsigned width);

  /// Reads `width` bits starting at `pos`, LSB first.
  std::uint64_t read_bits(std::size_t pos, unsigned width) const {
    return BitView(*this).read_bits(pos, width);
  }

  bool operator==(const BitString& other) const {
    return BitView(*this) == BitView(other);
  }

  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  friend class BitWriter;

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

inline BitView::BitView(const BitString& bits)
    : words_(bits.words().data()), size_(bits.size()) {}

/// Appends bits to a word array, a whole word (or two) per field.
class BitWriter {
 public:
  BitWriter() = default;

  void write_bit(bool value) { write_bits(value ? 1u : 0u, 1); }

  /// Appends the `width` <= 64 low-order bits of `value`, LSB first.
  void write_bits(std::uint64_t value, unsigned width);

  /// Elias-gamma code for value >= 0 (encodes value + 1 internally so that 0
  /// is representable). Uses 2*floor(log2(value+1)) + 1 bits.
  void write_gamma(std::uint64_t value);

  /// Bits written since the writer was made (or, in a BitArena, since the
  /// open string began).
  std::size_t size() const { return size_ - start_; }
  BitView bits() const {
    return {words_.data() + start_ / 64, size()};
  }
  /// The written bits as a BitString; the writer is empty afterwards.
  BitString take();

 private:
  friend class BitArena;

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;   // bits in words_
  std::size_t start_ = 0;  // first bit of the open string, a multiple of 64
};

/// Bit strings packed into one word array. Strings are written in order:
/// the writer's bits form the open string, and close() ends it. Each string
/// starts on a word boundary, so string i's words are exactly the words a
/// BitString with the same bits holds.
class BitArena {
 public:
  /// Room for `strings` strings of `words` words in all, so that writing
  /// them does not grow the arrays.
  void reserve(std::size_t strings, std::size_t words);

  BitWriter& writer() { return writer_; }

  /// Ends the open string; the next one starts on a fresh word.
  void close();

  /// Number of closed strings.
  std::size_t size() const { return sizes_.size(); }
  BitView operator[](std::size_t i) const {
    return {writer_.words_.data() + offsets_[i], sizes_[i]};
  }

 private:
  BitWriter writer_;
  std::vector<std::size_t> offsets_;  // word offset of each closed string
  std::vector<std::size_t> sizes_;    // bit size of each closed string
};

/// Streaming reader over a BitView.
class BitReader {
 public:
  explicit BitReader(BitView bits) : bits_(bits) {}

  bool read_bit();
  std::uint64_t read_bits(unsigned width);
  std::uint64_t read_gamma();

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return bits_.size() - pos_; }
  bool exhausted() const { return pos_ >= bits_.size(); }

 private:
  BitView bits_;
  std::size_t pos_ = 0;
};

/// Number of bits needed to represent values in [0, n) — i.e. ceil(log2(n)),
/// with bit_width_for(0) == bit_width_for(1) == 0... returns at least 1 for
/// n >= 2 and 0 for n <= 1.
unsigned bit_width_for(std::uint64_t n);

/// Length of write_gamma(value)'s code: 2*floor(log2(value+1)) + 1.
unsigned gamma_bits(std::uint64_t value);

}  // namespace rise
