// The one string splitter behind every spec string and comma list (graph,
// schedule and delay specs, --grid axes, fuzz --families), and the strict
// digit reader behind every unsigned number in those specs, the CLI count
// flags, --shard K/N and corpus lines.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rise {

/// Splits `text` at every `sep`, keeping empty fields: "a::b" gives
/// {"a", "", "b"}, "a," gives {"a", ""} and "" gives {""}. A stray
/// separator therefore always surfaces as an empty field the caller
/// rejects, never silently vanishes.
inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  for (;;) {
    const std::string::size_type pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Reads `text` into `out` as an unsigned integer in `base`: digits only (no
/// sign, blank or prefix, never empty) and at most 2^64 - 1. Otherwise
/// returns false and leaves `out` alone — where strtoull would read "-1" as
/// 2^64 - 1 and stop silently at the first junk character.
inline bool parse_digits(std::string_view text, std::uint64_t& out,
                         int base = 10) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v, base);
  if (ec != std::errc{} || stop != end) return false;
  out = v;
  return true;
}

}  // namespace rise
