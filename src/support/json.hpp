// Minimal hand-rolled JSON support for the campaign runner's structured
// results: a streaming writer (no intermediate DOM, deterministic number
// formatting via std::to_chars so equal inputs produce byte-identical files)
// and a small recursive-descent reader used by round-trip tests and by tools
// that post-process result files.
//
// Scope is deliberately narrow — RFC 8259 syntax, UTF-8 pass-through,
// \uXXXX escapes (including surrogate pairs) — with no dependencies beyond
// the standard library. Malformed input throws rise::CheckError.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rise::json {

/// Writes `s` to `os` as a quoted JSON string with all mandatory escapes.
void write_escaped(std::ostream& os, std::string_view s);

/// Streaming JSON writer. Handles commas, nesting, and (optionally)
/// two-space indentation; the caller supplies structure via
/// begin_object/begin_array/key/value calls. Misuse (a value where a key is
/// required, unbalanced end calls) throws CheckError.
class Writer {
 public:
  explicit Writer(std::ostream& os, bool pretty = true);

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Object member name; must be followed by exactly one value or container.
  Writer& key(std::string_view k);

  Writer& value(std::string_view v);
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(bool v);
  Writer& value(double v);  ///< finite only; NaN/Inf throw CheckError
  Writer& value(std::int64_t v);
  Writer& value(std::uint64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  Writer& null();

  template <typename T>
  Writer& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// True once every opened container has been closed.
  bool complete() const { return stack_.empty() && wrote_root_; }

 private:
  enum class Frame { kObject, kArray };
  void before_value();
  void newline_indent();

  std::ostream& os_;
  bool pretty_;
  bool wrote_root_ = false;
  bool key_pending_ = false;
  std::vector<std::pair<Frame, std::size_t>> stack_;  // frame, member count
};

/// Parsed JSON value (small DOM). Numbers keep both the double reading and,
/// when the literal is integral, the exact 64-bit value, so large seeds
/// survive a round trip.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  bool is_integer = false;     ///< literal was integral and fits 64 bits
  std::uint64_t u64 = 0;       ///< valid when is_integer and literal >= 0
  std::int64_t i64 = 0;        ///< valid when is_integer
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// Object member lookup that also checks the member's type: nullptr when
  /// absent, CheckError when present with a type other than `expected`.
  const Value* find(std::string_view key, Type expected) const;
  /// Object member lookup; CheckError when absent.
  const Value& at(std::string_view key) const;
  /// Array element; CheckError when out of range.
  const Value& at(std::size_t index) const;

  std::size_t size() const;  ///< elements (array) or members (object)
};

/// Typed conversion of one parsed value, used by every reader of the repo's
/// own documents so that no input is truncated silently: CheckError (naming
/// `key`) when the JSON type does not match `out`, or when an unsigned field
/// gets a negative, fractional or out-of-range number.
void read(const Value& v, std::string_view key, bool& out);
void read(const Value& v, std::string_view key, double& out);
void read(const Value& v, std::string_view key, std::string& out);
std::uint64_t read_uint(const Value& v, std::string_view key,
                        std::uint64_t max);
template <std::unsigned_integral T>
  requires(!std::same_as<T, bool>)
void read(const Value& v, std::string_view key, T& out) {
  out = static_cast<T>(read_uint(v, key, std::numeric_limits<T>::max()));
}

/// Reads member `key` of `obj` into `out`; an absent member leaves `out`
/// unchanged and returns false.
template <typename T>
bool read_member(const Value& obj, std::string_view key, T& out) {
  const Value* v = obj.find(key);
  if (v != nullptr) read(*v, key, out);
  return v != nullptr;
}

/// As read_member, but an absent member is a CheckError too.
template <typename T>
void require_member(const Value& obj, std::string_view key, T& out) {
  read(obj.at(key), key, out);
}

/// Parses exactly one JSON document (trailing whitespace allowed); throws
/// CheckError on malformed input or trailing junk.
Value parse(std::string_view text);

}  // namespace rise::json
