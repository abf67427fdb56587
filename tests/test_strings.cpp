#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"

namespace hhpim {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\n x \r"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-ws"), "no-ws");
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("one", ','), (std::vector<std::string>{"one"}));
}

TEST(Strings, StartsWithAndLower) {
  EXPECT_TRUE(starts_with("hello world", "hello"));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

TEST(Strings, FormatSi) {
  EXPECT_EQ(format_si(1.234e-3, 3, "J"), "1.234 mJ");
  EXPECT_EQ(format_si(42e-9, 3, "s"), "42.000 ns");
  EXPECT_EQ(format_si(2.5e6, 1, "Hz"), "2.5 MHz");
  EXPECT_EQ(format_si(1.0, 0, "B"), "1 B");
}

TEST(Table, RendersAlignedColumns) {
  Table t{{"name", "value"}};
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t{{"a", "b", "c"}};
  t.add_row({"only"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NE(t.render().find("| only |"), std::string::npos);
}

TEST(Table, RuleSeparatesSections) {
  Table t{{"x"}};
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string s = t.render();
  // header rule + top + bottom + inserted = 4 horizontal rules
  std::size_t rules = 0;
  for (std::size_t pos = s.find("+-"); pos != std::string::npos; pos = s.find("+-", pos + 1)) {
    ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=7", "--flag", "pos1"};
  const Cli cli{5, argv};
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_FALSE(cli.get_bool("missing", false));
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positionals().size(), 1u);
  EXPECT_EQ(cli.positionals()[0], "pos1");
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 3.0);
}

TEST(Cli, BoolSpellings) {
  const char* argv[] = {"prog", "--a=TRUE", "--b=no", "--c=1", "--d=off"};
  const Cli cli{5, argv};
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(Cli, IntegersAreDecimalOrHex) {
  const char* argv[] = {"prog", "--hex=0x5eed2025", "--upper=0XFF", "--neg=-12",
                        "--min=-0x8000000000000000"};
  const Cli cli{5, argv};
  EXPECT_EQ(cli.get_int("hex", 0), 1592598565);  // a base-10 parse stopped at 'x': 0
  EXPECT_EQ(cli.get_int("upper", 0), 255);
  EXPECT_EQ(cli.get_int("neg", 0), -12);
  EXPECT_EQ(cli.get_int("min", 0), INT64_MIN);
  EXPECT_EQ(cli.get_count("upper", 0), 255u);
}

TEST(Cli, RejectsGarbageTrailingJunkOverflowAndNegativeCounts) {
  for (const char* arg : {"--v=", "--v=abc", "--v=12abc", "--v=0x", "--v=1.5", "--v=4 ",
                          "--v=0x-4", "--v=9223372036854775808", "--v=0x10000000000000000"}) {
    const char* argv[] = {"prog", arg};
    EXPECT_THROW((void)Cli(2, argv).get_int("v", 0), std::invalid_argument) << arg;
  }
  for (const char* arg : {"--v=", "--v=abc", "--v=1.5x", "--v=1e999"}) {
    const char* argv[] = {"prog", arg};
    EXPECT_THROW((void)Cli(2, argv).get_double("v", 0.0), std::invalid_argument) << arg;
  }
  for (const char* arg : {"--v=", "--v=ture", "--v=2"}) {  // "ture" used to read as false
    const char* argv[] = {"prog", arg};
    EXPECT_THROW((void)Cli(2, argv).get_bool("v", true), std::invalid_argument) << arg;
  }
  const char* argv[] = {"prog", "--threads=-1"};  // used to wrap to 4294967295
  try {
    (void)Cli(2, argv).get_count("threads", 0);
    ADD_FAILURE() << "--threads=-1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("--threads"), std::string::npos) << e.what();
  }
}

TEST(Cli, RejectUnknownFlagsNamesTheFirstInCommandLineOrder) {
  const char* argv[] = {"prog", "--threads=2", "--zeta", "pos", "--alpha=1"};
  const Cli cli{5, argv};
  EXPECT_NO_THROW(cli.reject_unknown_flags({"alpha", "threads", "zeta"}));
  // Positionals are not flags; a flag that was never given is fine.
  EXPECT_NO_THROW(cli.reject_unknown_flags({"alpha", "threads", "zeta", "unused"}));
  try {
    cli.reject_unknown_flags({"threads"});  // --zeta precedes --alpha
    ADD_FAILURE() << "--zeta accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()}, "--zeta: unknown flag");
  }
  const char* typo[] = {"prog", "--thraeds=2"};
  EXPECT_THROW(Cli(2, typo).reject_unknown_flags({"threads"}), std::invalid_argument);
  // Without the opt-in call, unknown flags still parse (and read as unset).
  EXPECT_EQ(Cli(2, typo).get_count("threads", 7), 7u);
}

TEST(Cli, RejectUnknownFlagsRefusesTheFirstRepeatedFlag) {
  const char* argv[] = {"prog", "--devices=8", "--threads=1", "--quiet", "--threads=2",
                        "--devices=9"};
  try {
    Cli(6, argv).reject_unknown_flags({"devices", "threads", "quiet"});
    ADD_FAILURE() << "repeated --threads accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()}, "--threads: repeated flag");
  }
  // Without the opt-in call, the last value still wins.
  EXPECT_EQ(Cli(6, argv).get_count("threads", 0), 2u);
}

}  // namespace
}  // namespace hhpim
