// Tiny command-line flag parser for the example binaries.
// Supports `--name=value` and boolean `--flag`; everything else is a
// positional argument. write_output is their one way to write a file flag.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hhpim {

class Cli {
 public:
  /// Parses argv. Unknown positional arguments are collected in positionals().
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& def) const;
  /// Decimal or `0x`-hex, optionally signed. Throws std::invalid_argument
  /// naming the flag on an empty value, trailing characters or overflow.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// get_int() for counts (threads, sizes): also throws on a negative value.
  [[nodiscard]] std::uint64_t get_count(const std::string& name, std::uint64_t def) const;
  /// strtod syntax over the whole value; throws std::invalid_argument naming
  /// the flag on an empty value, trailing characters or overflow.
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  /// 1/0, true/false, yes/no, on/off or a bare `--flag`; else throws as above.
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;
  /// Opt-in strictness: throws std::invalid_argument naming the first flag,
  /// in command-line order, that is not in `accepted` or repeats an earlier
  /// one — a misspelt or repeated flag is an error, not a silent default.
  void reject_unknown_flags(std::initializer_list<std::string_view> accepted) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const { return positionals_; }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> flag_order_;  ///< flag names as they appeared
  std::vector<std::string> positionals_;
};

/// Runs `write` on the file at `path`, or on stdout when `path` is "-", then
/// flushes and checks the stream: a full disk or a closed pipe is an error,
/// not a silent success. Returns 0, or prints "cannot open PATH" / "cannot
/// write PATH" to stderr and returns 1. Unless `quiet` (or stdout), prints
/// "wrote PATH (what)".
int write_output(const std::string& path, bool quiet, const char* what,
                 const std::function<void(std::ostream&)>& write);

}  // namespace hhpim
