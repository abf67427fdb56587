#include "common/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "common/strings.hpp"

namespace hhpim {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + name + ": expected " + expected +
                              ", got '" + value + "'");
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    flags_[name] = eq != std::string::npos ? arg.substr(eq + 1) : "true";
    flag_order_.push_back(std::move(name));
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& text = it->second;
  std::string_view digits = text;
  const bool negative = !digits.empty() && digits.front() == '-';
  if (negative || (!digits.empty() && digits.front() == '+')) digits.remove_prefix(1);
  int base = 10;
  if (digits.size() > 2 && digits[0] == '0' && (digits[1] == 'x' || digits[1] == 'X')) {
    base = 16;
    digits.remove_prefix(2);
  }
  // from_chars takes no sign or prefix of its own, so "0x-1", "--1" and
  // "+-1" fail the whole-value check below.
  std::uint64_t magnitude = 0;
  const char* const end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, magnitude, base);
  if (digits.empty() || ptr != end) {
    bad_value(name, text, "a decimal or 0x-hex integer");
  }
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
      (negative ? 1 : 0);
  if (ec == std::errc::result_out_of_range || magnitude > limit) {
    bad_value(name, text, "an integer that fits in 64 signed bits");
  }
  return negative ? static_cast<std::int64_t>(0 - magnitude)
                  : static_cast<std::int64_t>(magnitude);
}

std::uint64_t Cli::get_count(const std::string& name, std::uint64_t def) const {
  if (!has(name)) return def;
  const std::int64_t v = get_int(name, 0);
  if (v < 0) bad_value(name, get(name, ""), "a non-negative integer");
  return static_cast<std::uint64_t>(v);
}

double Cli::get_double(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& text = it->second;
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front())) != 0) {
    bad_value(name, text, "a number");
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) bad_value(name, text, "a number");
  if (errno == ERANGE && std::isinf(v)) bad_value(name, text, "a finite number");
  return v;
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const auto v = to_lower(it->second);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  bad_value(name, it->second, "1/0, true/false, yes/no or on/off");
}

void Cli::reject_unknown_flags(std::initializer_list<std::string_view> accepted) const {
  for (auto it = flag_order_.begin(); it != flag_order_.end(); ++it) {
    const bool known = std::find(accepted.begin(), accepted.end(), *it) != accepted.end();
    if (!known || std::find(flag_order_.begin(), it, *it) != it) {
      throw std::invalid_argument("--" + *it + (known ? ": repeated flag" : ": unknown flag"));
    }
  }
}

int write_output(const std::string& path, bool quiet, const char* what,
                 const std::function<void(std::ostream&)>& write) {
  const bool to_stdout = path == "-";
  std::ofstream file;
  if (!to_stdout) {
    file.open(path, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
  }
  std::ostream& out = to_stdout ? std::cout : file;
  write(out);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  if (!quiet && !to_stdout) std::printf("wrote %s (%s)\n", path.c_str(), what);
  return 0;
}

}  // namespace hhpim
