// Minimal deterministic JSON and CSV writers for experiment results, plus
// the fixed-width binary writers, sizer and reader the fleet checkpoint
// format is built on.
//
// All writers produce byte-stable output for equal inputs: JSON keys are
// emitted in call order, doubles use std::to_chars shortest round-trip
// formatting (or, for the binary writer, their exact IEEE-754 bit pattern),
// and no locale-dependent formatting is involved — which is what lets the
// experiment runner diff a multi-threaded run against a single-threaded one
// and the fleet simulator restore a checkpoint byte-identically.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hhpim {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Shortest round-trip decimal rendering of a double ("0.25", "1e+20").
/// NaN/Inf (not valid JSON numbers) render as null.
[[nodiscard]] std::string json_number(double v);

/// Room a JSON number needs: the longest double is 24 chars
/// ("-2.2250738585072014e-308"), the longest 64-bit integer 20.
inline constexpr std::size_t kJsonNumberMax = 32;

/// json_number without the string: writes the rendering at `first`, which
/// has kJsonNumberMax bytes of room, and returns its end.
[[nodiscard]] char* json_number_to(char* first, double v);

/// JSON writer with 2-space indentation that appends to a caller-owned
/// string. Usage:
///
///   std::string out;
///   JsonWriter w{out};
///   w.begin_object();
///     w.key("runs"); w.begin_array();
///       w.value(1); w.value("two");
///     w.end_array();
///   w.end_object();
///
/// The writer validates nesting via its context stack; misuse (e.g. a value
/// in an object without a preceding key, or nesting deeper than kMaxDepth)
/// throws std::logic_error. Tokens are staged in a fixed buffer inside the
/// writer and reach `out` in one append when the buffer fills and when the
/// top-level value completes: read `out` once done() is true. Strings are
/// copied and checked for escapes in one pass and numbers go through
/// std::to_chars, so a caller that reuses one string across many writers
/// (one per JSONL line) formats without touching the heap unless a string
/// needs escaping. Callers that own a std::ostream write the finished
/// string once.
///
/// The fleet's JSON Lines (one whitespace-free object per device) do not go
/// through this writer: every line has the same keys in the same order, so
/// fleet::FleetResult's formatter copies their text from a template and
/// formats only the values, with json_escape and json_number_to.
class JsonWriter {
 public:
  static constexpr std::size_t kMaxDepth = 64;

  explicit JsonWriter(std::string& out) : out_(out) {}
  JsonWriter(const JsonWriter&) = delete;  // a copy would stage bytes twice
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view{v}); }
  void value(const std::string& v) { value(std::string_view{v}); }
  void value(double v);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void null();

  /// key + value in one call.
  template <typename T>
  void field(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

  /// True once the single top-level value is complete.
  [[nodiscard]] bool done() const;

 private:
  enum class Ctx : std::uint8_t { kObjectKey, kObjectValue, kArray };
  struct Level {
    Ctx ctx;
    bool first;  ///< no comma yet at this level
  };

  static constexpr std::size_t kStage = 512;

  void before_value();
  void after_value();
  void newline_indent();
  void open(Ctx ctx, char bracket);
  void close(char bracket);
  /// The stage with room for `n` (<= kStage) more bytes, flushed first if
  /// it lacks it.
  char* room(std::size_t n);
  void put(char c);
  void put(std::string_view s);
  void put_string(std::string_view s);  ///< quoted and escaped
  template <typename Int>
  void put_integer(Int v);
  void flush();

  std::string& out_;
  std::array<Level, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  bool top_written_ = false;
  char stage_[kStage];  ///< bytes not yet appended to out_
  std::size_t staged_ = 0;
};

/// Appending binary writer: fixed-width little-endian integers, doubles as
/// their raw IEEE-754 bit pattern (exact round trip, no decimal detour).
/// The byte stream it produces is host-independent for the types used —
/// which is what makes fleet checkpoints portable across processes. On a
/// little-endian host a field is one memcpy of its bytes and a column
/// (i64s/f64s) one append of the whole array; other hosts take a byte loop
/// that writes the same bytes.
class ByteWriter {
 public:
  /// Capacity for `n` bytes in total (see ByteSizer).
  void reserve(std::size_t n) { bytes_.reserve(n); }

  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { append(v, 2); }
  void u32(std::uint32_t v) { append(v, 4); }
  void u64(std::uint64_t v) { append(v, 8); }
  void i32(std::int32_t v) { append(static_cast<std::uint32_t>(v), 4); }
  void i64(std::int64_t v) { append(static_cast<std::uint64_t>(v), 8); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// A column: every value as i64()/f64() writes it, back to back, no
  /// length prefix (the caller writes the count).
  void i64s(std::span<const std::int64_t> v) { column(v); }
  void f64s(std::span<const double> v) { column(v); }
  /// Length-prefixed (u64) byte run.
  void blob(std::string_view v) {
    u64(v.size());
    raw(v);
  }
  /// Raw bytes, no length prefix (caller owns the framing).
  void raw(std::string_view v) { bytes_.append(v); }

  [[nodiscard]] const std::string& bytes() const { return bytes_; }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  /// Moves the accumulated bytes out; the writer is empty afterwards.
  [[nodiscard]] std::string take() { return std::move(bytes_); }
  /// Empties the writer, keeping its capacity for reuse.
  void clear() { bytes_.clear(); }

 private:
  void append(std::uint64_t v, std::size_t n) {
    if constexpr (std::endian::native == std::endian::little) {
      char le[8];
      std::memcpy(le, &v, sizeof le);
      bytes_.append(le, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
      }
    }
  }
  template <typename T>
  void column(std::span<const T> v) {
    if constexpr (std::endian::native == std::endian::little) {
      if (!v.empty()) bytes_.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
    } else {
      for (const T x : v) u64(std::bit_cast<std::uint64_t>(x));
    }
  }

  std::string bytes_;
};

/// Counts the bytes a ByteWriter appends for the same calls, so an encoder
/// written once as a template over the writer can size its buffer exactly
/// before it writes.
class ByteSizer {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u16(std::uint16_t) { n_ += 2; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void i32(std::int32_t) { n_ += 4; }
  void i64(std::int64_t) { n_ += 8; }
  void f64(double) { n_ += 8; }
  void i64s(std::span<const std::int64_t> v) { n_ += v.size_bytes(); }
  void f64s(std::span<const double> v) { n_ += v.size_bytes(); }
  void blob(std::string_view v) { n_ += 8 + v.size(); }
  void raw(std::string_view v) { n_ += v.size(); }

  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Writes the bytes a ByteWriter appends for the same calls straight into a
/// caller-owned span, sized beforehand (by a ByteSizer): no append per
/// field, so workers can fill disjoint spans of one buffer. A write past the
/// span's end throws std::logic_error (a sizing bug) before touching it.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<char> out) : out_(out) {}

  void u8(std::uint8_t v) { put(v, 1); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v), 4); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v), 8); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void i64s(std::span<const std::int64_t> v) { column(v); }
  void f64s(std::span<const double> v) { column(v); }
  void blob(std::string_view v) {
    u64(v.size());
    raw(v);
  }
  void raw(std::string_view v) {
    char* at = room(v.size());
    if (!v.empty()) std::memcpy(at, v.data(), v.size());
  }

  /// Bytes written so far.
  [[nodiscard]] std::size_t size() const { return n_; }
  /// Whether the span is exactly filled.
  [[nodiscard]] bool full() const { return n_ == out_.size(); }

 private:
  char* room(std::size_t n) {
    if (out_.size() - n_ < n) [[unlikely]] overflow(n);
    char* at = out_.data() + n_;
    n_ += n;
    return at;
  }
  void put(std::uint64_t v, std::size_t n) {
    char* at = room(n);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(at, &v, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) at[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
    }
  }
  template <typename T>
  void column(std::span<const T> v) {
    if constexpr (std::endian::native == std::endian::little) {
      raw({reinterpret_cast<const char*>(v.data()), v.size_bytes()});
    } else {
      for (const T x : v) u64(std::bit_cast<std::uint64_t>(x));
    }
  }
  [[noreturn]] void overflow(std::size_t n) const;

  std::span<char> out_;
  std::size_t n_ = 0;
};

/// Reader over a ByteWriter stream. Every accessor throws std::runtime_error
/// with a position diagnostic when the stream is shorter than the requested
/// field — a truncated snapshot fails loudly, never misreads.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}
  /// Reads `bytes` from offset `pos` on: positions (and diagnostics) stay
  /// offsets into `bytes`, so a reader over one part of a larger stream
  /// reports where in the stream it stands.
  ByteReader(std::string_view bytes, std::size_t pos) : bytes_(bytes), pos_(pos) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
  [[nodiscard]] std::uint16_t u16() { return static_cast<std::uint16_t>(take(2)); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  [[nodiscard]] std::uint64_t u64() { return take(8); }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(take(4)); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(take(8)); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(take(8)); }
  /// Fills `out` from a column written by ByteWriter::i64s/f64s.
  void i64s(std::span<std::int64_t> out) { column(out); }
  void f64s(std::span<double> out) { column(out); }
  /// Length-prefixed (u64) byte run, as written by ByteWriter::blob.
  [[nodiscard]] std::string_view blob();
  /// `n` raw bytes.
  [[nodiscard]] std::string_view raw(std::size_t n);

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }

 private:
  std::uint64_t take(std::size_t n) {
    if (remaining() < n) [[unlikely]] truncated(n);
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, bytes_.data() + pos_, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes_[pos_ + i]))
             << (8 * i);
      }
    }
    pos_ += n;
    return v;
  }
  template <typename T>
  void column(std::span<T> out) {
    if (remaining() / sizeof(T) < out.size()) [[unlikely]] truncated(out.size_bytes());
    if constexpr (std::endian::native == std::endian::little) {
      if (!out.empty()) std::memcpy(out.data(), bytes_.data() + pos_, out.size_bytes());
      pos_ += out.size_bytes();
    } else {
      for (T& x : out) x = std::bit_cast<T>(take(8));
    }
  }
  /// Throws the truncation diagnostic for a read of `n` bytes.
  [[noreturn]] void truncated(std::size_t n) const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// CSV writer (RFC 4180 quoting: fields containing comma, quote or newline
/// are quoted, embedded quotes doubled). One row per call, '\n' line endings.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void row(const std::vector<std::string>& cells);

  [[nodiscard]] static std::string escape(std::string_view cell);

 private:
  std::ostream& os_;
};

}  // namespace hhpim
