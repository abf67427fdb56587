#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

namespace hhpim {
namespace {

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string{"\x01"}), "\\u0001");
}

TEST(JsonNumber, ShortestRoundTripAndNonFinite) {
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(0.0 / 0.0), "null");
  // Round-trip: the rendering parses back to the exact same double.
  const double v = 1234.5678901234567;
  EXPECT_EQ(std::stod(json_number(v)), v);
}

TEST(JsonWriter, NestedStructure) {
  std::string os;
  JsonWriter w{os};
  w.begin_object();
  w.field("name", "grid");
  w.key("runs");
  w.begin_array();
  w.begin_object();
  w.field("i", 0);
  w.field("ok", true);
  w.end_object();
  w.value(2.5);
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(os,
            "{\n  \"name\": \"grid\",\n  \"runs\": [\n    {\n      \"i\": 0,\n"
            "      \"ok\": true\n    },\n    2.5\n  ]\n}");
}

TEST(JsonWriter, EmptyContainersStayCompact) {
  std::string os;
  JsonWriter w{os};
  w.begin_object();
  w.key("a");
  w.begin_array();
  w.end_array();
  w.key("o");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(os, "{\n  \"a\": [],\n  \"o\": {}\n}");
}

TEST(JsonWriter, CompactStyleEmitsNoWhitespace) {
  std::string os;
  JsonWriter w{os, JsonWriter::Style::kCompact};
  w.begin_object();
  w.field("name", "grid");
  w.key("runs");
  w.begin_array();
  w.begin_object();
  w.field("i", 0);
  w.field("ok", true);
  w.end_object();
  w.value(2.5);
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.done());
  // One line, no spaces: the JSONL device-line format of the fleet shards.
  EXPECT_EQ(os, "{\"name\":\"grid\",\"runs\":[{\"i\":0,\"ok\":true},2.5]}");
}

TEST(JsonWriter, MisuseThrows) {
  std::string os;
  JsonWriter w{os};
  w.begin_object();
  EXPECT_THROW(w.value(1), std::logic_error);   // value without key
  EXPECT_THROW(w.end_array(), std::logic_error);  // wrong closer
  w.key("k");
  EXPECT_THROW(w.key("k2"), std::logic_error);  // two keys in a row
}

TEST(JsonWriter, AppendsToTheCallersString) {
  std::string out = "prefix ";
  JsonWriter w{out, JsonWriter::Style::kCompact};
  w.value(1);
  EXPECT_EQ(out, "prefix 1");
}

TEST(JsonWriter, IntegerExtremes) {
  std::string out;
  JsonWriter w{out, JsonWriter::Style::kCompact};
  w.begin_array();
  w.value(std::numeric_limits<std::int64_t>::min());
  w.value(std::numeric_limits<std::int64_t>::max());
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::uint64_t{0});
  w.value(-1);
  w.end_array();
  EXPECT_EQ(out,
            "[-9223372036854775808,9223372036854775807,18446744073709551615,0,-1]");
}

TEST(JsonWriter, EscapesKeysAndValues) {
  std::string out;
  JsonWriter w{out, JsonWriter::Style::kCompact};
  w.begin_object();
  w.field(std::string_view{"a\"b\\c\n\x1f"}, "\t\u00e9");
  w.end_object();
  EXPECT_EQ(out, "{\"a\\\"b\\\\c\\n\\u001f\":\"\\t\u00e9\"}");
}

TEST(JsonWriter, NestingDepthIsBounded) {
  std::string out;
  JsonWriter w{out, JsonWriter::Style::kCompact};
  for (std::size_t i = 0; i < JsonWriter::kMaxDepth; ++i) w.begin_array();
  EXPECT_THROW(w.begin_array(), std::logic_error);
  for (std::size_t i = 0; i < JsonWriter::kMaxDepth; ++i) w.end_array();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(out, std::string(JsonWriter::kMaxDepth, '[') +
                     std::string(JsonWriter::kMaxDepth, ']'));
}

TEST(CsvWriter, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  std::ostringstream os;
  CsvWriter w{os};
  w.row({"a", "b,c", "d"});
  EXPECT_EQ(os.str(), "a,\"b,c\",d\n");
}

}  // namespace
}  // namespace hhpim
