// Messages exchanged by processes.
//
// A message is an algorithm-defined type tag plus a payload of 64-bit words.
// Each message also carries a *logical bit size* used for CONGEST accounting:
// algorithms state how many bits their message would occupy on the wire
// (e.g. a node ID costs O(log n) bits even though we store it in a uint64).
// If no explicit size is given (bits 0), a conservative default of
// 8 + 64 * payload_words bits is charged.
//
// A Message is only the 16-byte header. Its words live in storage the
// engine already owns: the asynchronous engine keeps them in the timing-
// wheel slot of the delivery (sim/event_queue.hpp), the synchronous engine
// in the sending chunk's bucket and then in the round's word array
// (sim/workspace.hpp). A receiver reads them in place through
// Incoming::words(), valid for the duration of the hook call. A kernel
// sends with
//
//   ctx.send(port, type, bits, words...)
//
// where each of `words...` is one word, a span of words, or a word source
// (a type with size() and write(std::uint64_t*), such as a list builder);
// the engine writes them straight into its storage.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "sim/types.hpp"
#include "support/check.hpp"

namespace rise::sim {

struct Message {
  std::uint32_t type = 0;
  std::uint32_t size = 0;  ///< payload words
  std::uint64_t bits = 8;  ///< logical size: declared, else 8 + 64 * size

  Message() = default;

  /// `declared_bits` 0 charges the default 8 + 64 * words.
  Message(std::uint32_t type_tag, std::uint64_t declared_bits,
          std::size_t words)
      : type(type_tag), size(static_cast<std::uint32_t>(words)) {
    RISE_CHECK_MSG(words <= UINT32_MAX,
                   "message of " << words << " words exceeds 2^32 - 1");
    bits = declared_bits != 0 ? declared_bits : 8 + 64 * std::uint64_t{size};
  }

  std::uint64_t logical_bits() const { return bits; }
};

/// A delivered message as seen by the receiving process.
struct Incoming {
  Port port = kInvalidPort;  ///< the receiver's port the message arrived on
  Message msg;
  const std::uint64_t* data = nullptr;  ///< msg.size words, engine-owned

  std::span<const std::uint64_t> words() const { return {data, msg.size}; }
};
static_assert(sizeof(Message) == 16);
static_assert(sizeof(Incoming) <= 32);

/// A word source writes size() payload words to the buffer it is given.
template <class T>
concept WordSource = requires(const T& source, std::uint64_t* out) {
  { source.size() } -> std::convertible_to<std::size_t>;
  source.write(out);
};

/// The payload words one piece of ctx.send(port, type, bits, words...)
/// adds, and the writer that puts them at `out`, returning the end.
inline std::size_t word_count(std::uint64_t) { return 1; }
inline std::size_t word_count(std::span<const std::uint64_t> words) {
  return words.size();
}
template <WordSource Source>
std::size_t word_count(const Source& source) {
  return source.size();
}

inline std::uint64_t* write_words(std::uint64_t* out, std::uint64_t word) {
  *out = word;
  return out + 1;
}
inline std::uint64_t* write_words(std::uint64_t* out,
                                  std::span<const std::uint64_t> words) {
  if (!words.empty()) std::memcpy(out, words.data(), words.size_bytes());
  return out + words.size();
}
template <WordSource Source>
std::uint64_t* write_words(std::uint64_t* out, const Source& source) {
  source.write(out);
  return out + source.size();
}

}  // namespace rise::sim
