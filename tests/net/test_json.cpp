// Json: strict parsing (every malformed body the gateway must answer
// 400 for, not guess at), number round-tripping (a dumped value parses
// back to the same value), and insertion-ordered objects.
#include <gtest/gtest.h>

#include <string>

#include "net/json.hpp"

namespace chainnn::net {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool());
  EXPECT_EQ(Json::parse("42")->as_int(), 42);
  EXPECT_EQ(Json::parse("-7")->as_int(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("2.5")->as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, IntegerLexemesStayIntegral) {
  EXPECT_TRUE(Json::parse("42")->is_integer());
  EXPECT_FALSE(Json::parse("42.0")->is_integer());
  EXPECT_FALSE(Json::parse("4e2")->is_integer());
  // Out-of-int64 integer lexemes degrade to double instead of failing.
  const auto huge = Json::parse("123456789012345678901234567890");
  ASSERT_TRUE(huge.has_value());
  EXPECT_TRUE(huge->is_number());
  EXPECT_FALSE(huge->is_integer());
}

TEST(Json, ObjectsPreserveInsertionOrderAndRoundTrip) {
  const std::string doc =
      "{\"z\": 1, \"a\": [true, null, \"x\"], \"m\": {\"k\": 2.5}}";
  const auto parsed = Json::parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), doc);
  ASSERT_NE(parsed->find("a"), nullptr);
  EXPECT_EQ(parsed->find("a")->as_array().size(), 3u);
  EXPECT_EQ(parsed->find("missing"), nullptr);
}

TEST(Json, DoublesUseShortestRoundTrip) {
  // A parse-dump cycle must not churn numbers.
  for (const char* lexeme : {"0.1", "1e-3", "806.4", "0.25", "3.5e8"}) {
    const auto v = Json::parse(lexeme);
    ASSERT_TRUE(v.has_value()) << lexeme;
    const auto reparsed = Json::parse(v->dump());
    ASSERT_TRUE(reparsed.has_value()) << lexeme;
    EXPECT_EQ(reparsed->as_double(), v->as_double()) << lexeme;
  }
}

TEST(Json, StringEscapesRoundTrip) {
  const auto v = Json::parse("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\"b\\c\n\tA\xC3\xA9");
  // Dump re-escapes controls and quotes; the result parses back equal.
  EXPECT_EQ(Json::parse(v->dump())->as_string(), v->as_string());
}

TEST(Json, RejectsMalformedDocuments) {
  std::string error;
  for (const char* doc : {
           "",             // empty
           "{",            // unterminated object
           "[1, 2",        // unterminated array
           "\"abc",        // unterminated string
           "{\"a\" 1}",    // missing colon
           "{\"a\": 1,}",  // trailing comma
           "[1 2]",        // missing comma
           "01",           // leading zero
           "1.",           // digits required after '.'
           "1e",           // digits required in exponent
           "+1",           // no leading plus in JSON
           "nul",          // truncated literal
           "\"\\x41\"",    // invalid escape
           "\"\t\"",       // unescaped control character
           "{} {}",        // trailing garbage
           "1 2",          // trailing garbage after scalar
       }) {
    EXPECT_FALSE(Json::parse(doc, &error).has_value()) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

TEST(Json, DepthLimitStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_FALSE(Json::parse(deep).has_value());
  // ... while reasonable nesting is fine.
  EXPECT_TRUE(Json::parse("[[[[[[[[[[1]]]]]]]]]]").has_value());
}

TEST(Json, JsonNumberHandlesNonFinite) {
  EXPECT_EQ(json_number(1.0 / 0.0), "0");  // JSON has no Inf
  EXPECT_EQ(json_number(0.25), "0.25");
}

}  // namespace
}  // namespace chainnn::net
