#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"

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
  JsonWriter w{out};
  w.value(1);
  EXPECT_EQ(out, "prefix 1");
}

TEST(JsonWriter, IntegerExtremes) {
  std::string out;
  JsonWriter w{out};
  w.begin_array();
  w.value(std::numeric_limits<std::int64_t>::min());
  w.value(std::numeric_limits<std::int64_t>::max());
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::uint64_t{0});
  w.value(-1);
  w.end_array();
  EXPECT_EQ(out,
            "[\n  -9223372036854775808,\n  9223372036854775807,\n  18446744073709551615,"
            "\n  0,\n  -1\n]");
}

TEST(JsonWriter, EscapesKeysAndValues) {
  std::string out;
  JsonWriter w{out};
  w.begin_object();
  w.field(std::string_view{"a\"b\\c\n\x1f"}, "\t\u00e9");
  w.end_object();
  EXPECT_EQ(out, "{\n  \"a\\\"b\\\\c\\n\\u001f\": \"\\t\u00e9\"\n}");
}

TEST(JsonWriter, NestingDepthIsBounded) {
  std::string out;
  JsonWriter w{out};
  for (std::size_t i = 0; i < JsonWriter::kMaxDepth; ++i) w.begin_array();
  EXPECT_THROW(w.begin_array(), std::logic_error);
  for (std::size_t i = 0; i < JsonWriter::kMaxDepth; ++i) w.end_array();
  EXPECT_TRUE(w.done());
  // Each level on its own line, indented by its depth; the innermost is
  // empty and closes on its own line.
  const auto line = [](std::size_t depth, char bracket) {
    return '\n' + std::string(2 * depth, ' ') + bracket;
  };
  std::string want = "[";
  for (std::size_t i = 1; i < JsonWriter::kMaxDepth; ++i) want += line(i, '[');
  want += "]";
  for (std::size_t i = JsonWriter::kMaxDepth - 1; i-- > 0;) want += line(i, ']');
  EXPECT_EQ(out, want);
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

// --- ByteWriter / ByteReader: the fleet snapshot's byte layout ---------------

/// Bytes from a list of small integers (readable expected layouts).
std::string bytes_of(std::initializer_list<int> v) {
  std::string out;
  for (const int b : v) out.push_back(static_cast<char>(b));
  return out;
}

/// The std::runtime_error message `f` throws, or "" when it returns.
template <typename F>
std::string error_of(F f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ByteWriter, FixedWidthIntegersAreLittleEndian) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0x89abcdefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-2);
  w.i64(-3);
  EXPECT_EQ(w.bytes(),
            bytes_of({0xab,                                            // u8
                      0x34, 0x12,                                      // u16
                      0xef, 0xcd, 0xab, 0x89,                          // u32
                      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
                      0xfe, 0xff, 0xff, 0xff,                          // i32
                      0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}));  // i64
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0x89abcdefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -2);
  EXPECT_EQ(r.i64(), -3);
  EXPECT_TRUE(r.at_end());

  ByteWriter extremes;
  extremes.i32(std::numeric_limits<std::int32_t>::min());
  extremes.i64(std::numeric_limits<std::int64_t>::min());
  extremes.u64(std::numeric_limits<std::uint64_t>::max());
  ByteReader back{extremes.bytes()};
  EXPECT_EQ(back.i32(), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(back.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(back.u64(), std::numeric_limits<std::uint64_t>::max());
}

TEST(ByteWriter, DoublesAreTheirExactBitPatterns) {
  const double nan_payload = std::bit_cast<double>(0x7ff8000000012345ULL);
  const double subnormal = std::numeric_limits<double>::denorm_min();
  ByteWriter w;
  w.f64(1.0);
  w.f64(-0.0);
  w.f64(nan_payload);
  w.f64(subnormal);
  EXPECT_EQ(w.bytes(),
            bytes_of({0, 0, 0, 0, 0, 0, 0xf0, 0x3f,            // 1.0
                      0, 0, 0, 0, 0, 0, 0, 0x80,               // -0.0
                      0x45, 0x23, 0x01, 0, 0, 0, 0xf8, 0x7f,   // NaN, payload kept
                      1, 0, 0, 0, 0, 0, 0, 0}));               // denorm_min
  ByteReader r{w.bytes()};
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x3ff0000000000000ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x8000000000000000ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x7ff8000000012345ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 1ULL);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteWriter, ColumnsMatchTheScalarLayout) {
  const std::vector<std::int64_t> busy = {0, -1, 42, std::numeric_limits<std::int64_t>::max()};
  const std::vector<double> energy = {-0.0, 0.5, std::numeric_limits<double>::denorm_min(),
                                      std::bit_cast<double>(0x7ff0000000000001ULL)};
  ByteWriter columns;
  columns.i64s(busy);
  columns.f64s(energy);
  columns.i64s({});  // an empty column writes nothing
  ByteWriter scalars;
  for (const std::int64_t v : busy) scalars.i64(v);
  for (const double v : energy) scalars.f64(v);
  EXPECT_EQ(columns.bytes(), scalars.bytes());

  ByteReader r{columns.bytes()};
  std::vector<std::int64_t> busy_back(busy.size());
  std::vector<double> energy_back(energy.size());
  std::vector<double> none;
  r.i64s(busy_back);
  r.f64s(energy_back);
  r.f64s(none);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(busy_back, busy);
  for (std::size_t i = 0; i < energy.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(energy_back[i]),
              std::bit_cast<std::uint64_t>(energy[i]));
  }
}

TEST(ByteWriter, BlobsAreLengthPrefixed) {
  ByteWriter w;
  w.blob("abc");
  w.blob("");
  w.raw("xy");
  EXPECT_EQ(w.bytes(), bytes_of({3, 0, 0, 0, 0, 0, 0, 0, 'a', 'b', 'c',
                                 0, 0, 0, 0, 0, 0, 0, 0, 'x', 'y'}));
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.blob(), "abc");
  EXPECT_EQ(r.blob(), "");
  EXPECT_EQ(r.raw(2), "xy");
  EXPECT_TRUE(r.at_end());
}

TEST(ByteWriter, SizerCountsWhatTheWriterWrites) {
  const std::vector<std::int64_t> busy = {1, 2, 3};
  const std::vector<double> energy = {1.0, 2.0, 3.0};
  ByteWriter w;
  ByteSizer s;
  const auto write = [&](auto& out) {
    out.u8(1);
    out.u16(2);
    out.u32(3);
    out.u64(4);
    out.i32(5);
    out.i64(6);
    out.f64(7.0);
    out.i64s(busy);
    out.f64s(energy);
    out.blob("blob");
    out.raw("raw");
  };
  write(w);
  write(s);
  EXPECT_EQ(s.size(), w.size());
  EXPECT_EQ(s.size(), std::size_t{1 + 2 + 4 + 8 + 4 + 8 + 8 + 24 + 24 + 12 + 3});

  ByteWriter reserved;
  reserved.reserve(s.size());
  write(reserved);
  EXPECT_EQ(reserved.bytes(), w.bytes());

  // A SpanWriter over a span of the sized length writes the same bytes and
  // fills it; a write past its end throws before touching the byte after.
  std::string buffer(s.size() + 1, '\x7f');
  SpanWriter into{{buffer.data(), s.size()}};
  write(into);
  EXPECT_TRUE(into.full());
  EXPECT_EQ(buffer.substr(0, s.size()), w.bytes());
  EXPECT_THROW(into.u8(0), std::logic_error);
  EXPECT_EQ(buffer.back(), '\x7f');
}

TEST(ByteReader, TruncationThrowsWithPositionDiagnostics) {
  const std::string three = bytes_of({1, 2, 3});
  {
    ByteReader r{three};
    EXPECT_EQ(error_of([&] { (void)r.u32(); }),
              "snapshot: truncated stream (need 4 bytes at offset 0, have 3)");
    EXPECT_EQ(r.position(), 0u);  // a failed read consumes nothing
    EXPECT_EQ(r.u16(), 0x0201);
    EXPECT_EQ(error_of([&] { (void)r.u16(); }),
              "snapshot: truncated stream (need 2 bytes at offset 2, have 1)");
    EXPECT_EQ(error_of([&] { (void)r.raw(2); }),
              "snapshot: truncated stream (need 2 bytes at offset 2, have 1)");
    EXPECT_EQ(r.u8(), 3);
    EXPECT_EQ(error_of([&] { (void)r.u8(); }),
              "snapshot: truncated stream (need 1 bytes at offset 3, have 0)");
  }
  {
    ByteWriter w;
    w.u64(10);
    w.raw("ab");
    ByteReader r{w.bytes()};
    EXPECT_EQ(error_of([&] { (void)r.blob(); }),
              "snapshot: truncated blob (declares 10 bytes at offset 8, have 2)");
  }
  {
    ByteWriter w;
    w.i64s(std::vector<std::int64_t>{1});
    w.raw("1234567");  // 15 bytes: one word short of a two-value column
    ByteReader r{w.bytes()};
    std::vector<std::int64_t> two(2);
    EXPECT_EQ(error_of([&] { r.i64s(two); }),
              "snapshot: truncated stream (need 16 bytes at offset 0, have 15)");
    std::vector<double> one_more(2);
    EXPECT_EQ(r.i64(), 1);
    EXPECT_EQ(error_of([&] { r.f64s(one_more); }),
              "snapshot: truncated stream (need 16 bytes at offset 8, have 7)");
  }
  {
    // A reader over a prefix, started part-way in, ends at the prefix's end
    // and reports offsets from its start.
    const std::string five = bytes_of({1, 2, 3, 4, 5});
    ByteReader r{std::string_view{five}.substr(0, 4), 2};
    EXPECT_EQ(r.position(), 2u);
    EXPECT_EQ(r.u8(), 3);
    EXPECT_EQ(error_of([&] { (void)r.u16(); }),
              "snapshot: truncated stream (need 2 bytes at offset 3, have 1)");
  }
}

// --- checksum64: the snapshot's corruption check -----------------------------

TEST(Checksum64, PinnedValues) {
  // Changing these values changes every snapshot's trailer: bump the
  // snapshot format version with them.
  EXPECT_EQ(checksum64(""), 0x569391cd0d68241aULL);
  EXPECT_EQ(checksum64("hhpim"), 0x4bf03a5dc634a756ULL);
  EXPECT_EQ(checksum64(std::string(100, '\x5a')), 0x32ec5e4469488fdfULL);
}

TEST(Checksum64, DetectsEverySingleBitFlip) {
  // 75 bytes: two full 4-lane rounds, a partial round and a 3-byte tail.
  std::string bytes;
  for (int i = 0; i < 75; ++i) bytes.push_back(static_cast<char>(i * 37 + 11));
  const std::uint64_t good = checksum64(bytes);
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
      EXPECT_NE(checksum64(bytes), good) << "byte " << at << " bit " << bit;
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
    }
  }
  EXPECT_EQ(checksum64(bytes), good);
}

TEST(Checksum64, DetectsReorderedWordsAndLengthChanges) {
  std::string bytes;
  for (int i = 0; i < 64; ++i) bytes.push_back(static_cast<char>(i));
  const std::uint64_t good = checksum64(bytes);
  // Swap every pair of (distinct) 8-byte words: across lanes, within a lane.
  for (std::size_t a = 0; a < 8; ++a) {
    for (std::size_t b = a + 1; b < 8; ++b) {
      std::string swapped = bytes;
      swapped.replace(8 * a, 8, bytes, 8 * b, 8);
      swapped.replace(8 * b, 8, bytes, 8 * a, 8);
      EXPECT_NE(checksum64(swapped), good) << "words " << a << ", " << b;
    }
  }
  // A zero byte appended or a trailing byte dropped changes the sum.
  EXPECT_NE(checksum64(bytes + std::string(1, '\0')), good);
  EXPECT_NE(checksum64(std::string_view{bytes}.substr(0, 63)), good);
  EXPECT_NE(checksum64(std::string(8, '\0')), checksum64(std::string(16, '\0')));
}

}  // namespace
}  // namespace hhpim
