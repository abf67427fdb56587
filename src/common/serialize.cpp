#include "common/serialize.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace hhpim {

namespace {

constexpr bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

constexpr auto kNeedsEscape = [] {
  std::array<bool, 256> t{};
  for (int c = 0; c < 256; ++c) t[c] = needs_escape(static_cast<char>(c));
  return t;
}();

}  // namespace

char* json_number_to(char* first, double v) {
  if (!std::isfinite(v)) return std::copy_n("null", 4, first);
  return std::to_chars(first, first + kJsonNumberMax, v).ptr;
}

std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (needs_escape(c)) {
          const auto u = static_cast<unsigned char>(c);
          const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xf]};
          out.append(esc, sizeof esc);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[kJsonNumberMax];
  return std::string(buf, json_number_to(buf, v));
}

// The stage: every token is stored into stage_ with plain stores, and the
// stage moves to out_ in one append when it fills and when the top-level
// value completes. Small appends straight into a std::string cost a library
// call each, several per field.

void JsonWriter::flush() {
  out_.append(stage_, staged_);
  staged_ = 0;
}

char* JsonWriter::room(std::size_t n) {
  if (kStage - staged_ < n) [[unlikely]] flush();
  return stage_ + staged_;
}

void JsonWriter::put(char c) {
  *room(1) = c;
  ++staged_;
}

void JsonWriter::put(std::string_view s) {
  if (s.size() > kStage / 2) {
    flush();
    out_.append(s);
    return;
  }
  std::copy(s.begin(), s.end(), room(s.size()));
  staged_ += s.size();
}

void JsonWriter::put_string(std::string_view s) {
  // One pass copies and checks the bytes; most strings (keys, model and
  // scenario names) need no escape, and are then done.
  if (s.size() + 2 <= kStage / 2) {
    char* const first = room(s.size() + 2);
    char* p = first;
    *p++ = '"';
    bool dirty = false;
    for (const char c : s) {
      *p++ = c;
      dirty |= kNeedsEscape[static_cast<unsigned char>(c)];
    }
    *p++ = '"';
    if (!dirty) [[likely]] {
      staged_ += static_cast<std::size_t>(p - first);
      return;
    }
  }
  put('"');
  put(json_escape(s));
  put('"');
}

template <typename Int>
void JsonWriter::put_integer(Int v) {
  char* const first = room(kJsonNumberMax);
  staged_ += static_cast<std::size_t>(std::to_chars(first, first + kJsonNumberMax, v).ptr - first);
}

void JsonWriter::newline_indent() {
  put('\n');
  const std::size_t n = 2 * depth_;  // <= 2 * kMaxDepth < kStage
  std::fill_n(room(n), n, ' ');
  staged_ += n;
}

void JsonWriter::before_value() {
  if (depth_ == 0) {
    if (top_written_) throw std::logic_error("JsonWriter: second top-level value");
    return;
  }
  Level& level = stack_[depth_ - 1];
  if (level.ctx == Ctx::kObjectKey) {
    throw std::logic_error("JsonWriter: value in object without a key");
  }
  if (level.ctx == Ctx::kArray) {
    if (!level.first) put(',');
    level.first = false;
    newline_indent();
  }
}

void JsonWriter::after_value() {
  if (depth_ == 0) {
    top_written_ = true;
    flush();
  } else if (stack_[depth_ - 1].ctx == Ctx::kObjectValue) {
    stack_[depth_ - 1].ctx = Ctx::kObjectKey;  // next must be a key
  }
}

void JsonWriter::open(Ctx ctx, char bracket) {
  if (depth_ == kMaxDepth) {
    throw std::logic_error("JsonWriter: nesting deeper than kMaxDepth");
  }
  before_value();
  put(bracket);
  stack_[depth_++] = Level{ctx, true};
}

void JsonWriter::close(char bracket) {
  const bool empty = stack_[--depth_].first;
  if (!empty) newline_indent();
  put(bracket);
  after_value();
}

void JsonWriter::begin_object() { open(Ctx::kObjectKey, '{'); }

void JsonWriter::end_object() {
  if (depth_ == 0 || stack_[depth_ - 1].ctx != Ctx::kObjectKey) {
    throw std::logic_error("JsonWriter: end_object outside object (or after dangling key)");
  }
  close('}');
}

void JsonWriter::begin_array() { open(Ctx::kArray, '['); }

void JsonWriter::end_array() {
  if (depth_ == 0 || stack_[depth_ - 1].ctx != Ctx::kArray) {
    throw std::logic_error("JsonWriter: end_array outside array");
  }
  close(']');
}

void JsonWriter::key(std::string_view k) {
  if (depth_ == 0 || stack_[depth_ - 1].ctx != Ctx::kObjectKey) {
    throw std::logic_error("JsonWriter: key outside object (or two keys in a row)");
  }
  Level& level = stack_[depth_ - 1];
  if (!level.first) put(',');
  level.first = false;
  newline_indent();
  put_string(k);
  put(": ");
  level.ctx = Ctx::kObjectValue;
}

void JsonWriter::value(std::string_view v) {
  before_value();
  put_string(v);
  after_value();
}

void JsonWriter::value(double v) {
  before_value();
  char* const first = room(kJsonNumberMax);
  staged_ += static_cast<std::size_t>(json_number_to(first, v) - first);
  after_value();
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  put_integer(v);
  after_value();
}

void JsonWriter::value(std::uint64_t v) {
  before_value();
  put_integer(v);
  after_value();
}

void JsonWriter::value(bool v) {
  before_value();
  put(v ? std::string_view{"true"} : std::string_view{"false"});
  after_value();
}

void JsonWriter::null() {
  before_value();
  put("null");
  after_value();
}

bool JsonWriter::done() const { return top_written_ && depth_ == 0; }

std::string CsvWriter::escape(std::string_view cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string{cell};
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) os_ << ',';
    os_ << escape(cells[i]);
  }
  os_ << '\n';
}

void SpanWriter::overflow(std::size_t n) const {
  throw std::logic_error("SpanWriter: " + std::to_string(n) + " bytes past offset " +
                         std::to_string(n_) + " overrun a span of " +
                         std::to_string(out_.size()));
}

void ByteReader::truncated(std::size_t n) const {
  throw std::runtime_error(
      "snapshot: truncated stream (need " + std::to_string(n) +
      " bytes at offset " + std::to_string(pos_) + ", have " +
      std::to_string(remaining()) + ")");
}

std::string_view ByteReader::blob() {
  const std::uint64_t n = u64();
  if (n > remaining()) {
    throw std::runtime_error(
        "snapshot: truncated blob (declares " + std::to_string(n) +
        " bytes at offset " + std::to_string(pos_) + ", have " +
        std::to_string(remaining()) + ")");
  }
  return raw(static_cast<std::size_t>(n));
}

std::string_view ByteReader::raw(std::size_t n) {
  if (remaining() < n) truncated(n);
  const std::string_view v = bytes_.substr(pos_, n);
  pos_ += n;
  return v;
}

}  // namespace hhpim
