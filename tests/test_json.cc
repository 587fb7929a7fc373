// Unit tests for the shared JSON layer (common/json.h): the incremental
// writer the benches and the service both emit through, and the strict
// parser behind the service's request bodies.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/json.h"

namespace uclust::common {
namespace {

TEST(JsonWriter, ObjectWithScalars) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "uclust");
  w.KV("n", 42);
  w.KV("ratio", 0.5);
  w.KV("ok", true);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\": \"uclust\", \"n\": 42, \"ratio\": 0.5, \"ok\": true}");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  JsonWriter w;
  w.BeginObject();
  w.Key("rows");
  w.BeginArray();
  w.BeginObject();
  w.KV("i", 1);
  w.EndObject();
  w.BeginObject();
  w.KV("i", 2);
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"rows\": [{\"i\": 1}, {\"i\": 2}]}");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  JsonWriter w;
  w.Value(std::string("a\"b\\c\nd\te\x01"));
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriter, ExactDoubleRoundTrips) {
  JsonWriter w;
  w.ValueExact(352.23825496742165);
  Result<JsonValue> parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueOrDie().AsDouble(), 352.23825496742165);
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  JsonWriter w;
  w.Value(std::numeric_limits<double>::infinity());
  EXPECT_EQ(w.str(), "null");
}

TEST(JsonWriter, RawSplicesVerbatim) {
  JsonWriter w;
  w.BeginObject();
  w.Key("result");
  w.Raw("{\"k\": 3}");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"result\": {\"k\": 3}}");
}

TEST(ParseJson, Scalars) {
  EXPECT_TRUE(ParseJson("null").ValueOrDie().is_null());
  EXPECT_EQ(ParseJson("true").ValueOrDie().AsBool(), true);
  EXPECT_EQ(ParseJson("-17").ValueOrDie().AsInt(), -17);
  EXPECT_EQ(ParseJson("2.5e3").ValueOrDie().AsDouble(), 2500.0);
  EXPECT_EQ(ParseJson("\"hi\"").ValueOrDie().AsString(), "hi");
}

// Integer tokens that fit int64 stay exact past 2^53; anything with a
// fraction or exponent, or beyond int64, is a double only.
TEST(ParseJson, IntegerTokensKeepExactInt64) {
  const struct {
    const char* text;
    bool is_int;
    int64_t value;
  } cases[] = {
      {"9007199254740993", true, 9007199254740993},
      {"9223372036854775807", true, INT64_MAX},
      {"-9223372036854775808", true, INT64_MIN},
      {"-0", true, 0},
      {"9223372036854775808", false, 0},
      {"1e3", false, 0},
      {"1.0", false, 0},
  };
  for (const auto& c : cases) {
    const JsonValue v = ParseJson(c.text).ValueOrDie();
    ASSERT_TRUE(v.is_number()) << c.text;
    EXPECT_EQ(v.is_int(), c.is_int) << c.text;
    if (c.is_int) {
      EXPECT_EQ(v.AsInt(), c.value) << c.text;
    }
  }
  EXPECT_EQ(ParseJson("9223372036854775808").ValueOrDie().AsDouble(), 0x1p63);
  EXPECT_FALSE(ParseJson("\"7\"").ValueOrDie().is_int());
}

TEST(ParseJson, ObjectPreservesDocumentOrderAndFindTakesLast) {
  Result<JsonValue> parsed =
      ParseJson("{\"a\": 1, \"b\": 2, \"a\": 3}");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& obj = parsed.ValueOrDie();
  ASSERT_EQ(obj.members().size(), 3u);
  EXPECT_EQ(obj.members()[0].first, "a");
  EXPECT_EQ(obj.members()[1].first, "b");
  EXPECT_EQ(obj.members()[2].first, "a");
  // Later keys override — the service's knob-application rule.
  ASSERT_NE(obj.Find("a"), nullptr);
  EXPECT_EQ(obj.Find("a")->AsInt(), 3);
  EXPECT_EQ(obj.Find("missing"), nullptr);
}

TEST(ParseJson, NestedStructure) {
  Result<JsonValue> parsed = ParseJson(
      "{\"engine\": {\"threads\": 4}, \"ids\": [1, 2, 3]}");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& obj = parsed.ValueOrDie();
  ASSERT_NE(obj.Find("engine"), nullptr);
  EXPECT_EQ(obj.Find("engine")->Find("threads")->AsInt(), 4);
  ASSERT_EQ(obj.Find("ids")->items().size(), 3u);
  EXPECT_EQ(obj.Find("ids")->items()[2].AsInt(), 3);
}

TEST(ParseJson, StringEscapes) {
  EXPECT_EQ(ParseJson("\"a\\n\\t\\\"b\\\\\"").ValueOrDie().AsString(),
            "a\n\t\"b\\");
  // \u escapes decode to UTF-8; surrogate pairs combine.
  EXPECT_EQ(ParseJson("\"\\u0041\"").ValueOrDie().AsString(), "A");
  EXPECT_EQ(ParseJson("\"\\u00e9\"").ValueOrDie().AsString(), "\xc3\xa9");
  EXPECT_EQ(ParseJson("\"\\ud83d\\ude00\"").ValueOrDie().AsString(),
            "\xf0\x9f\x98\x80");
}

TEST(ParseJson, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("{'a': 1}").ok());
  EXPECT_FALSE(ParseJson("01").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
}

TEST(ParseJson, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseJson("{} extra").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  // Trailing whitespace alone is fine.
  EXPECT_TRUE(ParseJson("{}  \n").ok());
}

TEST(ParseJson, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(ParseJson(deep).ok());
  std::string fine;
  for (int i = 0; i < 32; ++i) fine += '[';
  for (int i = 0; i < 32; ++i) fine += ']';
  EXPECT_TRUE(ParseJson(fine).ok());
}

TEST(ParseJson, ErrorsCarryByteOffsets) {
  Result<JsonValue> parsed = ParseJson("{\"a\": !}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("at byte"), std::string::npos);
}

TEST(ParseJson, WriterOutputRoundTrips) {
  JsonWriter w;
  w.BeginObject();
  w.KV("algorithm", "CK-means");
  w.Key("engine");
  w.BeginObject();
  w.KV("threads", 4);
  w.KV("simd_isa", "auto");
  w.EndObject();
  w.EndObject();
  Result<JsonValue> parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueOrDie().Find("algorithm")->AsString(), "CK-means");
  EXPECT_EQ(parsed.ValueOrDie().Find("engine")->Find("threads")->AsInt(), 4);
}

}  // namespace
}  // namespace uclust::common
