#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/check.hpp"

namespace rise::json {

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;  // UTF-8 bytes pass through
        }
    }
  }
  os << '"';
}

Writer::Writer(std::ostream& os, bool pretty) : os_(os), pretty_(pretty) {}

void Writer::newline_indent() {
  if (!pretty_) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void Writer::before_value() {
  if (stack_.empty()) {
    RISE_CHECK_MSG(!wrote_root_, "JSON writer: second root value");
    wrote_root_ = true;
    return;
  }
  auto& [frame, count] = stack_.back();
  if (frame == Frame::kObject) {
    RISE_CHECK_MSG(key_pending_, "JSON writer: object value without a key");
    key_pending_ = false;
    return;  // key() already emitted the separator and the name
  }
  if (count++ > 0) os_ << ',';
  newline_indent();
}

Writer& Writer::key(std::string_view k) {
  RISE_CHECK_MSG(!stack_.empty() && stack_.back().first == Frame::kObject,
                 "JSON writer: key outside an object");
  RISE_CHECK_MSG(!key_pending_, "JSON writer: two keys in a row");
  if (stack_.back().second++ > 0) os_ << ',';
  newline_indent();
  write_escaped(os_, k);
  os_ << (pretty_ ? ": " : ":");
  key_pending_ = true;
  return *this;
}

Writer& Writer::begin_object() {
  before_value();
  stack_.emplace_back(Frame::kObject, 0);
  os_ << '{';
  return *this;
}

Writer& Writer::end_object() {
  RISE_CHECK_MSG(!stack_.empty() && stack_.back().first == Frame::kObject,
                 "JSON writer: end_object without begin_object");
  RISE_CHECK_MSG(!key_pending_, "JSON writer: dangling key at end_object");
  const bool had_members = stack_.back().second > 0;
  stack_.pop_back();
  if (had_members) newline_indent();
  os_ << '}';
  return *this;
}

Writer& Writer::begin_array() {
  before_value();
  stack_.emplace_back(Frame::kArray, 0);
  os_ << '[';
  return *this;
}

Writer& Writer::end_array() {
  RISE_CHECK_MSG(!stack_.empty() && stack_.back().first == Frame::kArray,
                 "JSON writer: end_array without begin_array");
  const bool had_elements = stack_.back().second > 0;
  stack_.pop_back();
  if (had_elements) newline_indent();
  os_ << ']';
  return *this;
}

Writer& Writer::value(std::string_view v) {
  before_value();
  write_escaped(os_, v);
  return *this;
}

Writer& Writer::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  return *this;
}

Writer& Writer::value(double v) {
  RISE_CHECK_MSG(std::isfinite(v), "JSON writer: non-finite number");
  before_value();
  char buf[32];
  // Shortest representation that round-trips; deterministic across runs.
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  os_.write(buf, res.ptr - buf);
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  before_value();
  os_ << v;
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  before_value();
  os_ << v;
  return *this;
}

Writer& Writer::null() {
  before_value();
  os_ << "null";
  return *this;
}

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

const char* type_name(Value::Type type) {
  static constexpr const char* kNames[] = {"null",     "a boolean", "a number",
                                           "a string", "an array",  "an object"};
  return kNames[static_cast<int>(type)];
}

void expect_type(const Value& v, std::string_view key, Value::Type expected) {
  RISE_CHECK_MSG(v.type == expected, "JSON member '"
                                         << key << "' is " << type_name(v.type)
                                         << ", expected "
                                         << type_name(expected));
}

}  // namespace

const Value* Value::find(std::string_view key, Type expected) const {
  const Value* v = find(key);
  if (v != nullptr) expect_type(*v, key, expected);
  return v;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  RISE_CHECK_MSG(v != nullptr, "JSON: missing object member '" << key << "'");
  return *v;
}

const Value& Value::at(std::size_t index) const {
  RISE_CHECK_MSG(type == Type::kArray && index < array.size(),
                 "JSON: array index " << index << " out of range");
  return array[index];
}

std::size_t Value::size() const {
  if (type == Type::kArray) return array.size();
  if (type == Type::kObject) return object.size();
  return 0;
}

void read(const Value& v, std::string_view key, bool& out) {
  expect_type(v, key, Value::Type::kBool);
  out = v.boolean;
}

void read(const Value& v, std::string_view key, double& out) {
  expect_type(v, key, Value::Type::kNumber);
  out = v.number;
}

void read(const Value& v, std::string_view key, std::string& out) {
  expect_type(v, key, Value::Type::kString);
  out = v.string;
}

std::uint64_t read_uint(const Value& v, std::string_view key,
                        std::uint64_t max) {
  expect_type(v, key, Value::Type::kNumber);
  RISE_CHECK_MSG(v.is_integer && v.number >= 0.0,
                 "JSON member '" << key
                                 << "' is not an unsigned 64-bit integer");
  RISE_CHECK_MSG(v.u64 <= max, "JSON member '" << key << "' = " << v.u64
                                               << " exceeds the limit "
                                               << max);
  return v.u64;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    RISE_CHECK_MSG(pos_ == text_.size(),
                   "JSON: trailing characters at offset " << pos_);
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    RISE_CHECK_MSG(false, "JSON parse error at offset " << pos_ << ": "
                                                        << what);
    std::abort();  // unreachable; RISE_CHECK_MSG throws
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Value v;
        v.type = Value::Type::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char sep = next();
      if (sep == '}') return v;
      if (sep != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      const char sep = next();
      if (sep == ']') return v;
      if (sep != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        --pos_;
        fail("bad \\u escape");
      }
    }
    return v;
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            expect('\\');
            expect('u');
            const std::uint32_t lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("bad escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("expected a value");

    Value v;
    v.type = Value::Type::kNumber;
    char* end = nullptr;
    v.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    if (token.find_first_of(".eE") == std::string::npos) {
      // Integral literal: retain exact 64-bit values when they fit.
      errno = 0;
      if (token[0] == '-') {
        const long long s = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          v.is_integer = true;
          v.i64 = s;
          v.u64 = static_cast<std::uint64_t>(s);
        }
      } else {
        const unsigned long long u = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          v.is_integer = true;
          v.u64 = u;
          v.i64 = static_cast<std::int64_t>(u);
        }
      }
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

}  // namespace rise::json
