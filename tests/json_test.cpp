// Tests for the streaming JSON writer and the strict parser behind the
// serve protocol (duplicate keys, UTF-8 validation, depth bound, trailing
// garbage — every rejection is a JsonParseError with a byte offset).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/json.h"

namespace sitam {
namespace {

TEST(JsonWriter, EmptyObject) {
  JsonWriter w;
  w.begin_object().end_object();
  EXPECT_EQ(w.str(), "{}");
}

TEST(JsonWriter, EmptyArray) {
  JsonWriter w;
  w.begin_array().end_array();
  EXPECT_EQ(w.str(), "[]");
}

TEST(JsonWriter, ScalarsAndCommas) {
  JsonWriter w;
  w.begin_object()
      .kv("a", std::int64_t{1})
      .kv("b", "two")
      .kv("c", 2.5)
      .kv("d", true)
      .key("e")
      .null()
      .end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"two","c":2.5,"d":true,"e":null})");
}

TEST(JsonWriter, NestedStructures) {
  JsonWriter w;
  w.begin_object().key("rows").begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object().kv("i", std::int64_t{i}).end_object();
  }
  w.end_array().end_object();
  EXPECT_EQ(w.str(), R"({"rows":[{"i":0},{"i":1}]})");
}

TEST(JsonWriter, ArrayOfScalars) {
  JsonWriter w;
  w.begin_array().value(std::int64_t{1}).value(std::int64_t{2}).value(
      std::int64_t{3});
  w.end_array();
  EXPECT_EQ(w.str(), "[1,2,3]");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.begin_object().kv("s", "a\"b\\c\nd\te").end_object();
  EXPECT_EQ(w.str(), R"({"s":"a\"b\\c\nd\te"})");
}

TEST(JsonWriter, EscapesControlCharacters) {
  JsonWriter w;
  std::string text = "x";
  text += '\x01';
  w.begin_array().value(text).end_array();
  EXPECT_EQ(w.str(), "[\"x\\u0001\"]");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array().value(std::nan("")).end_array();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(JsonWriter, TopLevelScalar) {
  JsonWriter w;
  w.value(std::int64_t{42});
  EXPECT_EQ(w.str(), "42");
}

TEST(JsonWriter, MisuseThrows) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(std::int64_t{1}), std::logic_error);  // no key
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key in array
  }
  {
    JsonWriter w;
    w.begin_object().key("k");
    EXPECT_THROW(w.key("again"), std::logic_error);  // key after key
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched scope
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW((void)w.str(), std::logic_error);  // incomplete
  }
  {
    JsonWriter w;
    w.begin_object().key("k");
    EXPECT_THROW(w.end_object(), std::logic_error);  // dangling key
  }
}

TEST(JsonParser, ParsesScalarsAndContainers) {
  const JsonValue root = parse_json(
      R"({"i":-42,"d":2.5,"s":"hi","t":true,"f":false,"n":null,"a":[1,2]})");
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.find("i")->as_int(), -42);
  EXPECT_EQ(root.find("d")->as_double(), 2.5);
  EXPECT_EQ(root.find("s")->as_string(), "hi");
  EXPECT_TRUE(root.find("t")->as_bool());
  EXPECT_FALSE(root.find("f")->as_bool());
  EXPECT_TRUE(root.find("n")->is_null());
  ASSERT_TRUE(root.find("a")->is_array());
  EXPECT_EQ(root.find("a")->as_array().size(), 2u);
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonParser, IsIntegerTracksLexicalForm) {
  EXPECT_TRUE(parse_json("42").is_integer());
  EXPECT_TRUE(parse_json("-9223372036854775808").is_integer());  // INT64_MIN
  EXPECT_FALSE(parse_json("42.0").is_integer());  // fraction → double
  EXPECT_FALSE(parse_json("4e2").is_integer());   // exponent → double
  EXPECT_EQ(parse_json("4e2").as_double(), 400.0);
  EXPECT_THROW((void)parse_json("42.0").as_int(), JsonParseError);
  EXPECT_THROW((void)parse_json("99999999999999999999"), JsonParseError);
}

TEST(JsonParser, NonNegativeIntegersSpanUint64) {
  const JsonValue top = parse_json("18446744073709551615");  // 2^64 - 1
  EXPECT_FALSE(top.is_integer());
  ASSERT_TRUE(top.is_uint64());
  EXPECT_EQ(top.as_uint64(), ~std::uint64_t{0});
  EXPECT_EQ(top.dump(), "18446744073709551615");
  EXPECT_TRUE(parse_json("7").is_uint64());
  EXPECT_EQ(parse_json("7").as_uint64(), 7u);
  EXPECT_FALSE(parse_json("-7").is_uint64());
  EXPECT_FALSE(parse_json("7.5").is_uint64());
  EXPECT_THROW((void)parse_json("-7").as_uint64(), JsonParseError);
  EXPECT_THROW((void)parse_json("18446744073709551616"), JsonParseError);
}

TEST(JsonParser, DecodesEscapesAndSurrogatePairs) {
  // The escapes decode to 'A', e-acute and U+1F600 (a surrogate pair);
  // the tail repeats e-acute and U+1F600 as raw UTF-8 passthrough.
  const JsonValue root = parse_json(
      "\"a\\\"b\\\\c\\/\\n\\t\\u0041\\u00e9\\ud83d\\ude00\xC3\xA9\xF0\x9F\x98\x80\"");
  EXPECT_EQ(root.as_string(),
            "a\"b\\c/\n\tA\xC3\xA9\xF0\x9F\x98\x80\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonParser, DumpRoundTripsCanonically) {
  const std::string doc =
      R"({"rows":[{"i":0,"ok":true},{"i":1,"ok":false}],"label":"x\ny"})";
  const JsonValue root = parse_json(doc);
  EXPECT_EQ(root.dump(), doc);                   // key order preserved
  EXPECT_EQ(parse_json(root.dump()).dump(), doc);  // stable fixpoint
}

TEST(JsonParser, RejectsDuplicateKeysWithOffset) {
  try {
    (void)parse_json(R"({"op":"a","op":"b"})");
    FAIL() << "duplicate key accepted";
  } catch (const JsonParseError& err) {
    EXPECT_NE(std::string(err.what()).find("duplicate object key"),
              std::string::npos);
    EXPECT_GT(err.offset(), 0u);
  }
}

TEST(JsonParser, RejectsInvalidUtf8AndBadEscapes) {
  // Overlong encoding, unpaired escape surrogate, raw control byte,
  // truncated multi-byte tail.
  EXPECT_THROW((void)parse_json(std::string("\"\xC0\x80\"")), JsonParseError);
  EXPECT_THROW((void)parse_json(R"("\ud800")"), JsonParseError);
  EXPECT_THROW((void)parse_json(std::string("\"\x01\"")), JsonParseError);
  EXPECT_THROW((void)parse_json(std::string("\"\xE2\x82\"")), JsonParseError);
}

TEST(JsonParser, RejectsTrailingGarbageAndTruncation) {
  EXPECT_THROW((void)parse_json("{} {}"), JsonParseError);
  EXPECT_THROW((void)parse_json(R"({"a":1)"), JsonParseError);
  EXPECT_THROW((void)parse_json(""), JsonParseError);
  EXPECT_THROW((void)parse_json("nulL"), JsonParseError);
}

TEST(JsonParser, EnforcesTheDepthBound) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)parse_json(nested(kJsonMaxDepth)));
  EXPECT_THROW((void)parse_json(nested(kJsonMaxDepth + 8)), JsonParseError);
}

TEST(JsonParser, TypedAccessorsThrowOnKindMismatch) {
  const JsonValue root = parse_json(R"({"s":"x"})");
  EXPECT_THROW((void)root.find("s")->as_int(), JsonParseError);
  EXPECT_THROW((void)root.find("s")->as_array(), JsonParseError);
  EXPECT_THROW((void)root.as_string(), JsonParseError);
  EXPECT_THROW((void)parse_json("[1]").find("k"), JsonParseError);
}

}  // namespace
}  // namespace sitam
