#include "obs/json.hpp"

#include <gtest/gtest.h>

#include "json_parse.hpp"

namespace gendpr::obs {
namespace {

TEST(ObsJsonTest, ScalarsSerialize) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(std::uint64_t{1234567890123}).dump(), "1234567890123");
  EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(ObsJsonTest, StringsAreEscaped) {
  EXPECT_EQ(JsonValue("a\"b\\c\n").dump(), "\"a\\\"b\\\\c\\n\"");
}

TEST(ObsJsonTest, ObjectsKeepInsertionOrder) {
  JsonValue doc = JsonValue::object();
  doc.set("zulu", 1);
  doc.set("alpha", 2);
  doc.set("mike", 3);
  EXPECT_EQ(doc.dump(), "{\"zulu\":1,\"alpha\":2,\"mike\":3}");
  // set() on an existing key replaces in place, preserving position.
  doc.set("alpha", 9);
  EXPECT_EQ(doc.dump(), "{\"zulu\":1,\"alpha\":9,\"mike\":3}");
}

TEST(ObsJsonTest, FindReturnsNullForMissingKeys) {
  JsonValue doc = JsonValue::object();
  doc.set("present", 1);
  ASSERT_NE(doc.find("present"), nullptr);
  EXPECT_EQ(doc.find("present")->as_number(), 1.0);
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_EQ(JsonValue(3.0).find("anything"), nullptr);  // not an object
}

TEST(ObsJsonTest, RoundTripThroughParse) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "gendpr.run_report.v1");
  doc.set("count", 3);
  doc.set("ratio", 0.25);
  doc.set("ok", true);
  doc.set("missing", nullptr);
  JsonValue links = JsonValue::array();
  JsonValue link = JsonValue::object();
  link.set("from", 1);
  link.set("to", 2);
  links.push_back(std::move(link));
  doc.set("links", std::move(links));

  for (int indent : {0, 2}) {
    const auto parsed = parse_json(doc.dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    EXPECT_EQ(parsed.value().dump(), doc.dump()) << "indent=" << indent;
  }
}

TEST(ObsJsonTest, ParseHandlesEscapesAndNesting) {
  const auto parsed =
      parse_json("{\"s\": \"a\\u0041\\n\", \"a\": [1, [2, {}]]}");
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed.value().find("s"), nullptr);
  EXPECT_EQ(parsed.value().find("s")->as_string(), "aA\n");
  EXPECT_EQ(parsed.value().find("a")->as_array().size(), 2u);
}

TEST(ObsJsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(parse_json("").ok());
  EXPECT_FALSE(parse_json("{").ok());
  EXPECT_FALSE(parse_json("[1,]").ok());
  EXPECT_FALSE(parse_json("nul").ok());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing").ok());
  EXPECT_FALSE(parse_json("\"unterminated").ok());
}

}  // namespace
}  // namespace gendpr::obs
