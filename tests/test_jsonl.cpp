// Golden test for the JSON/JSONL formatters: the string-appending JsonWriter
// and the fleet's template device-line formatter against a verbatim copy of
// the std::ostream-based formatter they replaced (ref:: below), byte for
// byte.
// The reference keeps the old per-call temporaries on purpose — it is the
// specification, not something to optimize.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.hpp"
#include "fleet/simulator.hpp"
#include "workload/scenario.hpp"

namespace hhpim {
namespace {

namespace ref {

std::string json_escape(std::string_view s) {
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
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

class JsonWriter {
 public:
  enum class Style : std::uint8_t { kPretty, kCompact };

  explicit JsonWriter(std::ostream& os, Style style = Style::kPretty)
      : os_(os), style_(style) {}

  void begin_object() {
    before_value();
    os_ << '{';
    stack_.push_back(Ctx::kObjectKey);
    first_.push_back(true);
  }
  void end_object() {
    if (stack_.empty() || (stack_.back() != Ctx::kObjectKey)) {
      throw std::logic_error("JsonWriter: end_object outside object (or after dangling key)");
    }
    const bool empty = first_.back();
    stack_.pop_back();
    first_.pop_back();
    if (!empty) newline_indent();
    os_ << '}';
    after_value();
  }
  void begin_array() {
    before_value();
    os_ << '[';
    stack_.push_back(Ctx::kArray);
    first_.push_back(true);
  }
  void end_array() {
    if (stack_.empty() || stack_.back() != Ctx::kArray) {
      throw std::logic_error("JsonWriter: end_array outside array");
    }
    const bool empty = first_.back();
    stack_.pop_back();
    first_.pop_back();
    if (!empty) newline_indent();
    os_ << ']';
    after_value();
  }
  void key(std::string_view k) {
    if (stack_.empty() || stack_.back() != Ctx::kObjectKey) {
      throw std::logic_error("JsonWriter: key outside object (or two keys in a row)");
    }
    if (!first_.back()) os_ << ',';
    first_.back() = false;
    newline_indent();
    os_ << '"' << json_escape(k) << (style_ == Style::kCompact ? "\":" : "\": ");
    stack_.back() = Ctx::kObjectValue;
  }

  void value(std::string_view v) {
    before_value();
    os_ << '"' << json_escape(v) << '"';
    after_value();
  }
  void value(const char* v) { value(std::string_view{v}); }
  void value(const std::string& v) { value(std::string_view{v}); }
  void value(double v) {
    before_value();
    os_ << json_number(v);
    after_value();
  }
  void value(std::int64_t v) {
    before_value();
    os_ << v;
    after_value();
  }
  void value(std::uint64_t v) {
    before_value();
    os_ << v;
    after_value();
  }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v) {
    before_value();
    os_ << (v ? "true" : "false");
    after_value();
  }
  void null() {
    before_value();
    os_ << "null";
    after_value();
  }

  template <typename T>
  void field(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

 private:
  enum class Ctx : std::uint8_t { kObjectKey, kObjectValue, kArray };

  void newline_indent() {
    if (style_ == Style::kCompact) return;
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
  }
  void before_value() {
    if (stack_.empty()) {
      if (top_written_) throw std::logic_error("JsonWriter: second top-level value");
      return;
    }
    const Ctx ctx = stack_.back();
    if (ctx == Ctx::kObjectKey) {
      throw std::logic_error("JsonWriter: value in object without a key");
    }
    if (ctx == Ctx::kArray) {
      if (!first_.back()) os_ << ',';
      first_.back() = false;
      newline_indent();
    }
  }
  void after_value() {
    if (stack_.empty()) {
      top_written_ = true;
    } else if (stack_.back() == Ctx::kObjectValue) {
      stack_.back() = Ctx::kObjectKey;
    }
  }

  std::ostream& os_;
  Style style_ = Style::kPretty;
  std::vector<Ctx> stack_;
  std::vector<bool> first_;
  bool top_written_ = false;
};

void write_device_line(std::ostream& os, const fleet::DeviceResult& r,
                       const std::vector<std::string>& model_names) {
  JsonWriter w{os, JsonWriter::Style::kCompact};
  w.begin_object();
  w.field("device", static_cast<std::uint64_t>(r.id));
  w.field("model", model_names[r.model_index]);
  w.field("scenario", std::string_view{workload::to_string(r.scenario)});
  w.field("seed", r.seed);
  w.field("slice_ps", r.slice_ps);
  w.field("slices_total", r.slices_total);
  w.field("slices_executed", r.slices_executed);
  w.field("tasks", r.tasks);
  w.field("tasks_dropped", r.tasks_dropped);
  w.field("deadline_violations", r.deadline_violations);
  w.field("energy_pj", r.energy_pj);
  w.field("battery_capacity_pj", r.battery_capacity_pj);
  w.field("final_soc", r.final_soc);
  w.field("exhausted_at_slice", r.exhausted_at_slice);
  w.field("mode_switches", static_cast<std::uint64_t>(r.mode_switches));
  w.field("low_power_slices", r.low_power_slices);
  w.field("busy_time_ps", r.busy_time_ps);
  w.field("max_busy_ps", r.max_busy_ps);
  w.field("movement_time_ps", r.movement_time_ps);
  if (r.host_cycles > 0) {
    w.field("host_cycles", r.host_cycles);
  }
  if (r.latency_slo_ps > 0) {
    w.field("latency_slo_ps", r.latency_slo_ps);
    w.field("tier_switches", static_cast<std::uint64_t>(r.tier_switches));
  }
  w.end_object();
  os << '\n';
}

std::string jsonl(std::span<const fleet::DeviceResult> devices,
                  const std::vector<std::string>& model_names) {
  std::ostringstream os;
  for (const fleet::DeviceResult& r : devices) write_device_line(os, r, model_names);
  return os.str();
}

}  // namespace ref

/// "" when equal, else the first differing line of each (so a failure
/// prints one line, not two multi-megabyte strings).
std::string first_difference(const std::string& got, const std::string& want) {
  if (got == want) return "";
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  const auto line_of = [](const std::string& s, std::string::const_iterator at) {
    const std::size_t pos = static_cast<std::size_t>(at - s.begin());
    const std::size_t from = pos == 0 ? 0 : s.rfind('\n', pos - 1) + 1;
    return s.substr(from, s.find('\n', pos) - from);
  };
  return "at byte " + std::to_string(g - got.begin()) + ":\n  got:  " +
         line_of(got, g) + "\n  want: " + line_of(want, w);
}

/// Names that exercise every escape class: quotes, backslashes, each named
/// control escape, \u00XX controls (NUL and 0x1f included), DEL and UTF-8
/// (passed through raw), and the empty string. Two are several KB long, one
/// clean and one that escapes to about three times its length, so a line's
/// size bound must follow the escaped name.
std::vector<std::string> tricky_names() {
  using namespace std::string_literals;
  std::string long_clean;
  std::string long_escaped;
  for (int i = 0; i < 400; ++i) long_clean.append("ResNet-").append(std::to_string(i)) += '_';
  const std::string escapes = "\"\\\b\f\n\r\t\x01\x1f"s + '\0';
  for (std::size_t i = 0; i < 3000; ++i) long_escaped += escapes[i % escapes.size()];
  return {"EfficientNet-B0",
          "say \"hi\"",
          "back\\slash\\",
          "\b\f\n\r\t"s,
          "nul\0mid"s,
          "\x01\x02\x1f ctl \x7f"s,
          "café ✓ \U0001F600",
          "",
          long_clean,
          long_escaped};
}

/// A double drawn from the edge set most of the time, otherwise any bit
/// pattern at all (NaN payloads, subnormals and huge exponents included).
double pick_double(std::mt19937_64& rng) {
  static const double kEdges[] = {
      0.0,
      -0.0,
      1.0,
      0.1,
      -2.5,
      1e21,
      1e-7,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
  };
  const std::uint64_t roll = rng();
  if (roll % 3 == 0) return std::bit_cast<double>(rng());
  if (roll % 3 == 1) return std::uniform_real_distribution<double>{0.0, 1e12}(rng);
  return kEdges[(roll >> 8) % std::size(kEdges)];
}

template <typename Int>
Int pick_int(std::mt19937_64& rng) {
  const std::uint64_t roll = rng();
  switch (roll % 6) {
    case 0: return std::numeric_limits<Int>::min();
    case 1: return std::numeric_limits<Int>::max();
    case 2: return Int{0};
    case 3: return static_cast<Int>(-1);
    case 4: return static_cast<Int>(rng() % 1000);
    default: return static_cast<Int>(rng());
  }
}

std::vector<fleet::DeviceResult> seeded_devices(std::size_t n, std::size_t n_names,
                                                std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::vector<fleet::DeviceResult> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    fleet::DeviceResult& r = out[i];
    r.id = pick_int<std::uint32_t>(rng);
    r.model_index = static_cast<std::uint32_t>(rng() % n_names);
    r.scenario = static_cast<workload::Scenario>(
        rng() % (static_cast<unsigned>(workload::Scenario::kTrace) + 1));
    r.seed = pick_int<std::uint64_t>(rng);
    r.slice_ps = pick_int<std::int64_t>(rng);
    r.slices_total = pick_int<int>(rng);
    r.slices_executed = pick_int<int>(rng);
    r.tasks = pick_int<std::uint64_t>(rng);
    r.tasks_dropped = pick_int<std::uint64_t>(rng);
    r.deadline_violations = pick_int<std::uint64_t>(rng);
    r.energy_pj = pick_double(rng);
    r.battery_capacity_pj = pick_double(rng);
    r.final_soc = pick_double(rng);
    r.exhausted_at_slice = rng() % 2 == 0 ? -1 : pick_int<int>(rng);
    r.mode_switches = pick_int<std::uint32_t>(rng);
    r.low_power_slices = pick_int<int>(rng);
    r.busy_time_ps = pick_int<std::int64_t>(rng);
    r.max_busy_ps = pick_int<std::int64_t>(rng);
    r.movement_time_ps = pick_int<std::int64_t>(rng);
    // Optional fields: absent (0), present, or a negative SLO (absent too).
    r.host_cycles = rng() % 2 == 0 ? 0 : pick_int<std::uint64_t>(rng);
    r.latency_slo_ps = rng() % 2 == 0 ? 0 : pick_int<std::int64_t>(rng);
    r.tier_switches = pick_int<std::uint32_t>(rng);
  }
  return out;
}

TEST(JsonlGolden, DeviceLinesMatchTheOstreamFormatter) {
  fleet::FleetResult result;
  result.model_names = tricky_names();
  result.devices = fleet::DeviceResults{seeded_devices(1500, result.model_names.size(), 0x5eed2025)};
  // The edges pinned by name, whatever the generator drew.
  fleet::DeviceResult& first = result.devices[0];
  first.seed = std::numeric_limits<std::uint64_t>::max();
  first.slice_ps = std::numeric_limits<std::int64_t>::min();
  first.busy_time_ps = std::numeric_limits<std::int64_t>::max();
  first.exhausted_at_slice = -1;
  first.energy_pj = -0.0;
  first.final_soc = std::numeric_limits<double>::denorm_min();
  first.host_cycles = 7;
  first.latency_slo_ps = 1;
  result.devices[1].host_cycles = 0;
  result.devices[1].latency_slo_ps = 0;

  const std::string expected = ref::jsonl(result.devices, result.model_names);
  ASSERT_EQ(std::count(expected.begin(), expected.end(), '\n'), 1500);
  // Both writers format shard-sized chunks on `threads` threads: a size that
  // divides nothing, one device per chunk, one chunk for all (fewer chunks
  // than threads), and an unset (zero) size.
  for (const unsigned threads : {1U, 2U, 3U, 4U, 8U}) {
    for (const std::size_t shard_size : {7U, 1U, 5000U, 0U}) {
      result.threads = threads;
      result.shard_size = shard_size;
      std::ostringstream os;
      result.write_jsonl(os);
      EXPECT_EQ(first_difference(os.str(), expected), "")
          << "write_jsonl threads=" << threads << " shard_size=" << shard_size;
      EXPECT_EQ(first_difference(result.to_jsonl(), expected), "")
          << "to_jsonl threads=" << threads << " shard_size=" << shard_size;
    }
  }
}

TEST(JsonlGolden, AnEmptyResultWritesNothing) {
  fleet::FleetResult result;
  result.shard_size = 1;
  for (const unsigned threads : {1U, 4U}) {
    result.threads = threads;
    std::ostringstream os;
    result.write_jsonl(os);
    EXPECT_TRUE(os.good());
    EXPECT_EQ(os.str(), "") << "threads=" << threads;
    EXPECT_EQ(result.to_jsonl(), "") << "threads=" << threads;
  }
}

TEST(JsonlGolden, ModelIndexOutsideTheTableThrowsNamingTheDevice) {
  fleet::FleetResult result;
  result.model_names = tricky_names();
  result.devices = fleet::DeviceResults{seeded_devices(600, result.model_names.size(), 11)};
  result.shard_size = 16;
  result.devices[500].id = 424242;
  result.devices[500].model_index = static_cast<std::uint32_t>(result.model_names.size());
  const auto expect_named = [](const auto& call, const char* what) {
    try {
      call();
      ADD_FAILURE() << what << " accepted an out-of-range model index";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string{e.what()}.find("device 424242"), std::string::npos)
          << what << ": " << e.what();
    }
  };
  // At 4 threads the bad chunk is formatted on a helper thread or on the
  // writer: either way its exception reaches the caller.
  for (const unsigned threads : {1U, 4U}) {
    result.threads = threads;
    std::ostringstream os;
    expect_named([&] { result.write_jsonl(os); }, "write_jsonl");
    expect_named([&] { (void)result.to_jsonl(); }, "to_jsonl");
  }
}

/// A stream buffer that accepts `limit` bytes, then fails every write.
class FailAfter : public std::streambuf {
 public:
  explicit FailAfter(std::size_t limit) : limit_(limit) {}
  [[nodiscard]] std::size_t accepted() const { return accepted_; }

 protected:
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    const std::size_t take = std::min(static_cast<std::size_t>(n), limit_ - accepted_);
    accepted_ += take;
    return static_cast<std::streamsize>(take);
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    return xsputn(&ch, 1) == 1 ? c : traits_type::eof();
  }

 private:
  std::size_t limit_;
  std::size_t accepted_ = 0;
};

TEST(JsonlGolden, AFailedStreamStopsFormatting) {
  // 200 chunks of 10 devices; every device from chunk 40 on has a model
  // index outside the table, so formatting any of those chunks would throw.
  // The stream fails inside chunk 1: write_jsonl must return (no hang),
  // leave the stream bad, and format nothing past the ring — at most a few
  // chunks beyond the failed one, far fewer than all 200.
  fleet::FleetResult result;
  result.model_names = tricky_names();
  result.devices = fleet::DeviceResults{seeded_devices(2000, result.model_names.size(), 13)};
  result.shard_size = 10;
  const std::vector<fleet::DeviceResult> first_chunk(result.devices.begin(),
                                                     result.devices.begin() + 10);
  const std::size_t limit = ref::jsonl(first_chunk, result.model_names).size() + 1;
  for (std::size_t i = 400; i < result.devices.size(); ++i) {
    result.devices[i].model_index = static_cast<std::uint32_t>(result.model_names.size());
  }
  for (const unsigned threads : {1U, 2U, 4U, 8U}) {
    result.threads = threads;
    EXPECT_THROW((void)result.to_jsonl(), std::out_of_range) << "threads=" << threads;
    FailAfter buf{limit};
    std::ostream os{&buf};
    EXPECT_NO_THROW(result.write_jsonl(os)) << "threads=" << threads;
    EXPECT_TRUE(os.bad()) << "threads=" << threads;
    EXPECT_EQ(buf.accepted(), limit) << "threads=" << threads;
    // A stream that throws on failure: its exception comes out after the
    // helpers are joined.
    FailAfter throwing_buf{limit};
    std::ostream throwing{&throwing_buf};
    throwing.exceptions(std::ios::badbit);
    EXPECT_THROW(result.write_jsonl(throwing), std::ios_base::failure)
        << "threads=" << threads;
  }
}

TEST(JsonlGolden, EveryNameAndScenarioRoundTheFormatter) {
  // Line by line, so a mismatch names its model and scenario.
  fleet::FleetResult result;
  result.model_names = tricky_names();
  for (std::uint32_t m = 0; m < result.model_names.size(); ++m) {
    for (unsigned s = 0; s <= static_cast<unsigned>(workload::Scenario::kTrace); ++s) {
      fleet::DeviceResult r;
      r.id = m * 100 + s;
      r.model_index = m;
      r.scenario = static_cast<workload::Scenario>(s);
      result.devices = fleet::DeviceResults{std::span{&r, 1}};
      EXPECT_EQ(result.to_jsonl(), ref::jsonl(result.devices, result.model_names))
          << "model " << m << ", scenario " << s;
    }
  }
}

/// A nested pretty document in the shape write_summary_json and
/// ResultSet::write_json emit, driven through either writer.
template <typename Writer>
void emit_document(Writer& w, std::mt19937_64& rng) {
  w.begin_object();
  w.field("fleet", "say \"hi\" \\ \n café");
  w.field("devices", std::numeric_limits<std::uint64_t>::max());
  w.field("low", std::numeric_limits<std::int64_t>::min());
  w.field("count", 3);
  w.field("ok", true);
  w.field("bad", false);
  w.key("nothing");
  w.null();
  w.key("stats");
  w.begin_object();
  for (const char* k : {"mean", "min", "max", "stddev"}) w.field(k, pick_double(rng));
  w.end_object();
  w.key("empty_object");
  w.begin_object();
  w.end_object();
  w.key("empty_array");
  w.begin_array();
  w.end_array();
  w.key("runs");
  w.begin_array();
  for (int i = 0; i < 5; ++i) {
    w.begin_object();
    w.field("index", static_cast<std::uint64_t>(i));
    w.field("energy_pj", pick_double(rng));
    w.field("seed", pick_int<std::int64_t>(rng));
    w.key("slice_metrics");
    w.begin_array();
    for (int j = 0; j < i; ++j) {
      w.begin_array();
      w.value(pick_double(rng));
      w.value(j);
      w.value("x\ty");
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.value(2.5);
  w.end_array();
  w.field("key\x01with\"escapes", -0.0);
  // Longer than the writer's internal buffer: clean, and needing escapes.
  w.field(std::string(300, 'k'), std::string(700, 'v'));
  w.field("long_escaped", std::string(200, 'e') + "\"\n\x02" + std::string(200, 'e'));
  w.end_object();
}

TEST(JsonlGolden, NestedDocumentsMatch) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    std::ostringstream os;
    ref::JsonWriter rw{os};
    std::mt19937_64 ref_rng{seed};
    emit_document(rw, ref_rng);

    std::string out;
    JsonWriter w{out};
    std::mt19937_64 rng{seed};
    emit_document(w, rng);
    EXPECT_TRUE(w.done());
    EXPECT_EQ(out, os.str()) << "seed " << seed;
  }
}

TEST(JsonlGolden, EscapeAndNumberHelpersMatch) {
  for (const std::string& s : tricky_names()) {
    EXPECT_EQ(json_escape(s), ref::json_escape(s));
  }
  std::string all_bytes;
  for (int c = 0; c < 256; ++c) all_bytes += static_cast<char>(c);
  EXPECT_EQ(json_escape(all_bytes), ref::json_escape(all_bytes));
  std::mt19937_64 rng{42};
  for (int i = 0; i < 2000; ++i) {
    const double v = pick_double(rng);
    EXPECT_EQ(json_number(v), ref::json_number(v)) << std::bit_cast<std::uint64_t>(v);
  }
}

}  // namespace
}  // namespace hhpim
