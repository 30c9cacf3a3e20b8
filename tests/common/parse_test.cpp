// Tests for the strict CLI count/seed/duration parsers (common/parse.hpp). The
// "-5" rejection is THE regression test: the strtoul-based parsers these
// replaced accepted a leading '-' and wrapped the negated value, turning a
// typo'd count into ~1.8e19.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/parse.hpp"

namespace nextgov {
namespace {

TEST(Parse, AcceptsPlainDecimalCounts) {
  std::uint64_t v = 99;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("1", v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(parse_u64("42", v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_u64("007", v));  // leading zeros are still decimal
  EXPECT_EQ(v, 7u);
}

TEST(Parse, AcceptsExactlyUint64Max) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(Parse, RejectsNegativeInsteadOfWrapping) {
  // strtoul("-5") "succeeds" with 18446744073709551611 - the bug this
  // parser exists to kill. A negative count must be a parse error.
  std::uint64_t v = 1234;
  EXPECT_FALSE(parse_u64("-5", v));
  EXPECT_FALSE(parse_u64("-1", v));
  EXPECT_FALSE(parse_u64("-0", v));
  EXPECT_EQ(v, 1234u) << "out must be untouched on failure";
  std::size_t c = 77;
  EXPECT_FALSE(parse_count("-5", c));
  EXPECT_EQ(c, 77u);
}

TEST(Parse, RejectsOverflowInsteadOfSaturating) {
  std::uint64_t v = 1234;
  EXPECT_FALSE(parse_u64("18446744073709551616", v));  // 2^64
  EXPECT_FALSE(parse_u64("99999999999999999999", v));
  EXPECT_FALSE(parse_u64(std::string(100, '9').c_str(), v));
  EXPECT_EQ(v, 1234u);
}

TEST(Parse, RejectsNonDigitForms) {
  std::uint64_t v = 1234;
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64(nullptr, v));
  EXPECT_FALSE(parse_u64("+5", v));    // no explicit sign
  EXPECT_FALSE(parse_u64(" 5", v));    // no leading whitespace
  EXPECT_FALSE(parse_u64("5 ", v));    // no trailing whitespace
  EXPECT_FALSE(parse_u64("12abc", v)); // no trailing garbage (strtoul stopped at '1','2')
  EXPECT_FALSE(parse_u64("abc", v));
  EXPECT_FALSE(parse_u64("1.5", v));   // counts are integers
  EXPECT_FALSE(parse_u64("0x10", v));  // no base prefixes
  EXPECT_FALSE(parse_u64("1e3", v));   // no exponents
  EXPECT_EQ(v, 1234u);
}

TEST(Parse, SecondsAcceptPlainDecimalsWithinTheBound) {
  double v = -1.0;
  EXPECT_TRUE(parse_seconds("0", 100.0, v));
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(parse_seconds("15", 100.0, v));
  EXPECT_EQ(v, 15.0);
  EXPECT_TRUE(parse_seconds("2.5", 100.0, v));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(parse_seconds(".5", 100.0, v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(parse_seconds("100", 100.0, v));
  EXPECT_EQ(v, 100.0);
}

TEST(Parse, SecondsRejectEveryOtherForm) {
  // atof read "15O" as 15 and "abc", "inf", "1e300" as 0 or a value no
  // SimTime can hold; each must be a parse error instead.
  double v = 7.0;
  for (const char* bad : {"", "15O", "abc", "inf", "nan", "1e300", "1e3", "-1", "+1", " 1",
                          "1 ", ".", "1.2.3", "0x10", "100.5"}) {
    EXPECT_FALSE(parse_seconds(bad, 100.0, v)) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_seconds(nullptr, 100.0, v));
  EXPECT_FALSE(parse_seconds(std::string(400, '9').c_str(), 100.0, v));
  EXPECT_EQ(v, 7.0) << "out must be untouched on failure";
}

TEST(Parse, CountMatchesU64OnSixtyFourBitHosts) {
  std::size_t c = 0;
  EXPECT_TRUE(parse_count("123456789", c));
  EXPECT_EQ(c, 123456789u);
  if constexpr (sizeof(std::size_t) == sizeof(std::uint64_t)) {
    EXPECT_TRUE(parse_count("18446744073709551615", c));
    EXPECT_EQ(c, std::numeric_limits<std::size_t>::max());
  }
}

}  // namespace
}  // namespace nextgov
