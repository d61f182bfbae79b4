#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "support/check.hpp"

namespace rise::json {
namespace {

std::string write_compact(const std::function<void(Writer&)>& body) {
  std::ostringstream os;
  Writer w(os, /*pretty=*/false);
  body(w);
  return os.str();
}

TEST(JsonWriter, ScalarsAndNesting) {
  const std::string out = write_compact([](Writer& w) {
    w.begin_object();
    w.kv("a", 1);
    w.kv("b", "two");
    w.kv("c", true);
    w.key("d").null();
    w.key("e").begin_array();
    w.value(1.5);
    w.begin_object().kv("nested", -7).end_object();
    w.end_array();
    w.end_object();
    EXPECT_TRUE(w.complete());
  });
  EXPECT_EQ(out,
            R"({"a":1,"b":"two","c":true,"d":null,"e":[1.5,{"nested":-7}]})");
}

TEST(JsonWriter, EscapesStrings) {
  const std::string out = write_compact([](Writer& w) {
    w.value("q\"b\\s\nnl\ttab\x01z");
  });
  EXPECT_EQ(out, "\"q\\\"b\\\\s\\nnl\\ttab\\u0001z\"");
}

TEST(JsonWriter, EmptyContainers) {
  EXPECT_EQ(write_compact([](Writer& w) {
              w.begin_object();
              w.key("a").begin_array().end_array();
              w.key("o").begin_object().end_object();
              w.end_object();
            }),
            R"({"a":[],"o":{}})");
}

TEST(JsonWriter, PrettyPrintsStably) {
  std::ostringstream os;
  Writer w(os);
  w.begin_object();
  w.kv("x", 1);
  w.key("y").begin_array().value(2).end_array();
  w.end_object();
  EXPECT_EQ(os.str(), "{\n  \"x\": 1,\n  \"y\": [\n    2\n  ]\n}");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream os;
  Writer w(os);
  w.begin_object();
  EXPECT_THROW(w.value(1), CheckError);       // value without key
  EXPECT_THROW(w.end_array(), CheckError);    // wrong container
  w.key("k");
  EXPECT_THROW(w.key("k2"), CheckError);      // two keys in a row
  EXPECT_THROW(w.end_object(), CheckError);   // dangling key
  EXPECT_THROW(w.value(
      std::numeric_limits<double>::quiet_NaN()), CheckError);
}

TEST(JsonWriter, Uint64RoundTripsExactly) {
  const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
  const std::string out =
      write_compact([&](Writer& w) { w.begin_array().value(big).end_array(); });
  const Value v = parse(out);
  ASSERT_TRUE(v.at(std::size_t{0}).is_integer);
  EXPECT_EQ(v.at(std::size_t{0}).u64, big);
}

TEST(JsonReader, ParsesScalars) {
  EXPECT_EQ(parse("null").type, Value::Type::kNull);
  EXPECT_TRUE(parse("true").boolean);
  EXPECT_FALSE(parse("false").boolean);
  EXPECT_DOUBLE_EQ(parse("-2.5e2").number, -250.0);
  EXPECT_EQ(parse("\"hi\"").string, "hi");
  EXPECT_EQ(parse("  42  ").i64, 42);
  EXPECT_EQ(parse("-7").i64, -7);
}

TEST(JsonReader, ParsesNestedDocuments) {
  const Value v = parse(R"({"a": [1, {"b": "x"}, null], "c": {"d": true}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.size(), 2u);
  const Value& a = v.at("a");
  ASSERT_TRUE(a.is_array());
  EXPECT_EQ(a.at(std::size_t{0}).i64, 1);
  EXPECT_EQ(a.at(std::size_t{1}).at("b").string, "x");
  EXPECT_TRUE(a.at(std::size_t{2}).is_null());
  EXPECT_TRUE(v.at("c").at("d").boolean);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), CheckError);
  EXPECT_THROW(a.at(std::size_t{3}), CheckError);
}

TEST(JsonReader, DecodesEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\ne\tf")").string, "a\"b\\c/d\ne\tf");
  EXPECT_EQ(parse(R"("\u0041\u00e9")").string, "A\xc3\xa9");
  EXPECT_EQ(parse(R"("\ud83d\ude00")").string, "\xf0\x9f\x98\x80");  // 😀
}

TEST(JsonReader, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "[1 2]", "{\"a\" 1}", "{\"a\":}", "tru", "nul",
        "\"unterminated", "\"bad\\q\"", "01x", "1.2.3", "[1]:", "{\"a\":1,}",
        "\"\\ud800\"", "\"\x01\""}) {
    EXPECT_THROW(parse(bad), CheckError) << "input: " << bad;
  }
}

TEST(JsonRoundTrip, WriteParseRewriteIsIdentity) {
  const auto build = [](Writer& w) {
    w.begin_object();
    w.kv("name", "campaign \"x\"\n");
    w.kv("count", std::uint64_t{1234567890123456789ull});
    w.kv("ratio", 0.1);
    w.key("list").begin_array();
    for (int i = 0; i < 3; ++i) w.value(i);
    w.end_array();
    w.end_object();
  };
  const std::string once = write_compact(build);
  const Value v = parse(once);
  EXPECT_EQ(v.at("name").string, "campaign \"x\"\n");
  EXPECT_EQ(v.at("count").u64, 1234567890123456789ull);
  EXPECT_DOUBLE_EQ(v.at("ratio").number, 0.1);

  // Re-serialize from the parsed DOM and compare byte-for-byte.
  const std::string twice = write_compact([&](Writer& w) {
    w.begin_object();
    w.kv("name", v.at("name").string);
    w.kv("count", v.at("count").u64);
    w.kv("ratio", v.at("ratio").number);
    w.key("list").begin_array();
    for (const Value& e : v.at("list").array) w.value(e.i64);
    w.end_array();
    w.end_object();
  });
  EXPECT_EQ(once, twice);
}

// The typed readers are what every reader of the repo's own documents goes
// through: a value of the wrong JSON type, or one that does not fit the
// field, must throw rather than be truncated or read as 0.
TEST(JsonTypedRead, ConvertsValuesOfTheMatchingType) {
  std::uint32_t u32 = 0;
  read(parse("4294967295"), "u32", u32);
  EXPECT_EQ(u32, std::numeric_limits<std::uint32_t>::max());
  std::uint64_t u64 = 0;
  read(parse("18446744073709551615"), "u64", u64);
  EXPECT_EQ(u64, std::numeric_limits<std::uint64_t>::max());
  double d = 0.0;
  read(parse("7"), "d", d);  // integral literals are numbers too
  EXPECT_EQ(d, 7.0);
  bool b = false;
  read(parse("true"), "b", b);
  EXPECT_TRUE(b);
  std::string str;
  read(parse("\"x\""), "s", str);
  EXPECT_EQ(str, "x");
}

TEST(JsonTypedRead, RejectsWrongTypesAndValuesThatDoNotFit) {
  std::uint32_t u32 = 0;
  EXPECT_THROW(read(parse("4294967296"), "u32", u32), CheckError);
  std::uint64_t u64 = 0;
  for (const char* bad : {"-1", "1.5", "1e3", "18446744073709551616",
                          "\"lots\"", "true", "null", "[]", "{}"}) {
    EXPECT_THROW(read(parse(bad), "u64", u64), CheckError) << "input: " << bad;
  }
  EXPECT_EQ(u64, 0u);
  bool b = false;
  EXPECT_THROW(read(parse("1"), "b", b), CheckError);
  double d = 0.0;
  EXPECT_THROW(read(parse("\"1.5\""), "d", d), CheckError);
  std::string str;
  EXPECT_THROW(read(parse("1"), "s", str), CheckError);
  try {
    read(parse("4294967299"), "num_nodes", u32);
    ADD_FAILURE() << "no CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "'num_nodes' = 4294967299 exceeds the limit 4294967295"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonTypedRead, AbsentMembersKeepDefaultsUnlessRequired) {
  const Value doc = parse(R"({"n": 3, "list": [1], "name": "x"})");
  std::uint64_t n = 9;
  EXPECT_FALSE(read_member(doc, "missing", n));
  EXPECT_EQ(n, 9u);
  EXPECT_TRUE(read_member(doc, "n", n));
  EXPECT_EQ(n, 3u);
  EXPECT_THROW(require_member(doc, "missing", n), CheckError);
  std::string name;
  EXPECT_THROW(read_member(doc, "n", name), CheckError);

  EXPECT_EQ(doc.find("missing", Value::Type::kArray), nullptr);
  ASSERT_NE(doc.find("list", Value::Type::kArray), nullptr);
  EXPECT_THROW(doc.find("name", Value::Type::kArray), CheckError);
}

}  // namespace
}  // namespace rise::json
