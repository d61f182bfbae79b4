// The one string splitter behind every spec string and comma list (graph,
// schedule and delay specs, --grid axes, fuzz --families).
#pragma once

#include <string>
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

}  // namespace rise
