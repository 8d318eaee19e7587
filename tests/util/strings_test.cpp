#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace ps::util {
namespace {

TEST(SplitTest, SplitsOnDelimiter) {
  const auto fields = split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto fields = split(",x,", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "");
  EXPECT_EQ(fields[1], "x");
  EXPECT_EQ(fields[2], "");
}

TEST(SplitTest, NoDelimiterYieldsWholeString) {
  const auto fields = split("hello", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "hello");
}

TEST(JoinTest, JoinsWithSeparator) {
  const std::vector<std::string> pieces = {"a", "b", "c"};
  EXPECT_EQ(join(pieces, ", "), "a, b, c");
}

TEST(JoinTest, EmptyInputYieldsEmptyString) {
  EXPECT_EQ(join({}, ","), "");
}

TEST(TrimTest, StripsWhitespaceBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StartsWithTest, ChecksPrefixes) {
  EXPECT_TRUE(starts_with("powerstack", "power"));
  EXPECT_FALSE(starts_with("power", "powerstack"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(IEqualsTest, CaseInsensitiveComparison) {
  EXPECT_TRUE(iequals("MixedAdaptive", "mixedadaptive"));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_FALSE(iequals("abc", "ab"));
}

TEST(FormatWattsTest, PicksSiPrefix) {
  EXPECT_EQ(format_watts(214.0), "214.0 W");
  EXPECT_EQ(format_watts(167000.0), "167.0 kW");
  EXPECT_EQ(format_watts(1350000.0, 2), "1.35 MW");
}

TEST(FormatSecondsTest, PicksUnit) {
  EXPECT_EQ(format_seconds(1.5), "1.50 s");
  EXPECT_EQ(format_seconds(0.0123), "12.30 ms");
  EXPECT_EQ(format_seconds(0.0), "0.00 s");
}

TEST(TextCodecTest, ReadWholeTakesTheWholeTokenOnly) {
  std::uint64_t count = 0;
  EXPECT_TRUE(read_whole("18446744073709551615", count));
  EXPECT_EQ(count, 18446744073709551615u);
  for (const char* token :
       {"", " 1", "1 ", "+1", "-1", "0x10", "1.0", "18446744073709551616"}) {
    EXPECT_FALSE(read_whole(token, count)) << "'" << token << "'";
  }
}

TEST(TextCodecTest, FiniteAndNonNegativeVariants) {
  double value = 0.0;
  EXPECT_TRUE(read_finite("-2.5e-1", value));
  EXPECT_DOUBLE_EQ(value, -0.25);
  EXPECT_FALSE(read_non_negative("-2.5e-1", value));
  for (const char* token : {"nan", "inf", "-inf", "1e999"}) {
    EXPECT_FALSE(read_finite(token, value)) << token;
    EXPECT_FALSE(read_non_negative(token, value)) << token;
  }
  EXPECT_TRUE(read_non_negative("0", value));
}

TEST(TextCodecTest, OperandMessagesNameTheOption) {
  EXPECT_DOUBLE_EQ(parse_non_negative("--hours", "2.5"), 2.5);
  for (const char* text : {"nan", "inf", "-5", "5x"}) {
    try {
      static_cast<void>(parse_non_negative("--hours", text));
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const InvalidArgument& error) {
      EXPECT_EQ(std::string(error.what()),
                "option '--hours' is not a non-negative number: '" +
                    std::string(text) + "'");
    }
  }
}

TEST(TextCodecTest, KeyedLinesKeepTheWireGrammar) {
  EXPECT_EQ(keyed_u64("round 7", "round"), 7u);
  EXPECT_EQ(keyed_value("job  a-b ", "job"), "a-b");
  // `key ` with nothing after it is not a `key` line for a number, but
  // an empty value for a name.
  EXPECT_THROW(static_cast<void>(keyed_u64("round ", "round")),
               InvalidArgument);
  EXPECT_EQ(keyed_value("job ", "job"), "");
  EXPECT_THROW(static_cast<void>(keyed_u64("round  7", "round")),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(keyed_value("jobs 1", "job")),
               InvalidArgument);
}

TEST(TextCodecTest, WattsRoundTripBitForBit) {
  const std::vector<double> values = {0.0, 1e-300, 123.4565, 1e300,
                                      255.99950000000001};
  std::string line;
  append_watts(line, "caps", values);
  EXPECT_EQ(parse_watts_list(expect_field(line, "caps"), "caps"), values);
}

}  // namespace
}  // namespace ps::util
