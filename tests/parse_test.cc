// Tests: src/common/parse — the shared seed-range/axis/flag parsers
// behind the mpcn CLI and the bench binaries.
//
// The load-bearing contract is the FAILURE side: every malformed spec
// must throw ProtocolError with the offending token in the message,
// because these strings arrive from shell commands and CI scripts where
// a silently-guessed grid would burn hours of compute on the wrong
// cells.
#include <gtest/gtest.h>

#include <climits>

#include "src/common/errors.h"
#include "src/common/parse.h"

namespace mpcn {
namespace {

std::vector<std::uint64_t> u64s(std::initializer_list<std::uint64_t> v) {
  return std::vector<std::uint64_t>(v);
}

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,b", ','), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Trim, StripsAsciiWhitespace) {
  EXPECT_EQ(trim("  a b \t"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(ParseU64, AcceptsStrictDecimals) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64(" 7 "), 7u);  // surrounding whitespace is fine
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseU64, RejectsEverythingElse) {
  EXPECT_THROW(parse_u64(""), ProtocolError);
  EXPECT_THROW(parse_u64(" "), ProtocolError);
  EXPECT_THROW(parse_u64("x"), ProtocolError);
  EXPECT_THROW(parse_u64("-1"), ProtocolError);
  EXPECT_THROW(parse_u64("+1"), ProtocolError);
  EXPECT_THROW(parse_u64("1.5"), ProtocolError);
  EXPECT_THROW(parse_u64("1e3"), ProtocolError);
  EXPECT_THROW(parse_u64("0x10"), ProtocolError);
  EXPECT_THROW(parse_u64("12 34"), ProtocolError);
  EXPECT_THROW(parse_u64("18446744073709551616"), ProtocolError);  // 2^64
}

TEST(ParseInt, RejectsValuesACastWouldWrap) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("2147483647"), INT_MAX);
  EXPECT_THROW(parse_int("2147483648"), ProtocolError);
  EXPECT_THROW(parse_int("4294967297"), ProtocolError);  // wraps to 1
  EXPECT_THROW(parse_int("-1"), ProtocolError);
}

TEST(ParseI64, HandlesSignAndLimits) {
  EXPECT_EQ(parse_i64("-5"), -5);
  EXPECT_EQ(parse_i64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parse_i64("-9223372036854775808"), INT64_MIN);
  EXPECT_THROW(parse_i64("9223372036854775808"), ProtocolError);
  EXPECT_THROW(parse_i64("-9223372036854775809"), ProtocolError);
  EXPECT_THROW(parse_i64("--5"), ProtocolError);
  EXPECT_THROW(parse_i64("-"), ProtocolError);
}

TEST(ParseDouble, StrictFullConsumption) {
  EXPECT_DOUBLE_EQ(parse_double("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_double("1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_double("-2.5"), -2.5);
  EXPECT_THROW(parse_double(""), ProtocolError);
  EXPECT_THROW(parse_double("abc"), ProtocolError);
  EXPECT_THROW(parse_double("1.5x"), ProtocolError);
  // stod would accept these; a NaN crash probability is a silent no-op
  // adversary, so they must be rejected.
  EXPECT_THROW(parse_double("nan"), ProtocolError);
  EXPECT_THROW(parse_double("inf"), ProtocolError);
  EXPECT_THROW(parse_double("-inf"), ProtocolError);
  EXPECT_THROW(parse_double("0x1p3"), ProtocolError);
  EXPECT_THROW(parse_double("1e999"), ProtocolError);  // overflows to inf
}

TEST(ParseU64Axis, SinglesRangesAndMixes) {
  EXPECT_EQ(parse_u64_axis("5"), u64s({5}));
  EXPECT_EQ(parse_u64_axis("1..8"), u64s({1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(parse_u64_axis("3,5,9"), u64s({3, 5, 9}));
  EXPECT_EQ(parse_u64_axis("1..3,7"), u64s({1, 2, 3, 7}));
  EXPECT_EQ(parse_u64_axis("9,3"), u64s({9, 3}));  // order preserved
  EXPECT_EQ(parse_u64_axis(" 1 .. 3 "), u64s({1, 2, 3}));
  EXPECT_EQ(parse_u64_axis("4..4"), u64s({4}));
}

TEST(ParseU64Axis, MalformedSpecsFailLoudly) {
  EXPECT_THROW(parse_u64_axis(""), ProtocolError);
  EXPECT_THROW(parse_u64_axis("  "), ProtocolError);
  EXPECT_THROW(parse_u64_axis("1,,2"), ProtocolError);
  EXPECT_THROW(parse_u64_axis(",1"), ProtocolError);
  EXPECT_THROW(parse_u64_axis("1,"), ProtocolError);
  EXPECT_THROW(parse_u64_axis("1.."), ProtocolError);
  EXPECT_THROW(parse_u64_axis("..5"), ProtocolError);
  EXPECT_THROW(parse_u64_axis(".."), ProtocolError);
  EXPECT_THROW(parse_u64_axis("8..1"), ProtocolError);  // reversed
  EXPECT_THROW(parse_u64_axis("a"), ProtocolError);
  EXPECT_THROW(parse_u64_axis("1..b"), ProtocolError);
  EXPECT_THROW(parse_u64_axis("1...3"), ProtocolError);
  EXPECT_THROW(parse_u64_axis("-1..3"), ProtocolError);
  EXPECT_THROW(parse_u64_axis("3,3"), ProtocolError);     // duplicate
  EXPECT_THROW(parse_u64_axis("1..4,2"), ProtocolError);  // duplicate
  // Expansion cap: a typo'd huge range must fail, not allocate.
  EXPECT_THROW(parse_u64_axis("0..100000000"), ProtocolError);
}

TEST(ParseNameAxis, TrimsAndRejectsJunk) {
  EXPECT_EQ(parse_name_axis("condvar,spin_park"),
            (std::vector<std::string>{"condvar", "spin_park"}));
  EXPECT_EQ(parse_name_axis(" a , b "),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_THROW(parse_name_axis(""), ProtocolError);
  EXPECT_THROW(parse_name_axis("a,,b"), ProtocolError);
  EXPECT_THROW(parse_name_axis("a,a"), ProtocolError);
  EXPECT_THROW(parse_name_axis(",a"), ProtocolError);
}

TEST(FlagScan, PresenceAndValues) {
  const char* argv_c[] = {"prog",   "--wait", "spin", "--json=x.json",
                          "--flag", "-n"};
  char** argv = const_cast<char**>(argv_c);
  const int argc = 6;
  EXPECT_TRUE(flag_present(argc, argv, "wait"));
  EXPECT_TRUE(flag_present(argc, argv, "json"));
  EXPECT_TRUE(flag_present(argc, argv, "flag"));
  EXPECT_FALSE(flag_present(argc, argv, "spin"));  // a value, not a flag
  EXPECT_FALSE(flag_present(argc, argv, "wai"));   // no prefix matching

  EXPECT_EQ(flag_value(argc, argv, "wait"), std::optional<std::string>("spin"));
  EXPECT_EQ(flag_value(argc, argv, "json"),
            std::optional<std::string>("x.json"));
  // "--flag -n": next token starts with '-', so the flag is valueless.
  EXPECT_EQ(flag_value(argc, argv, "flag"), std::nullopt);
  EXPECT_EQ(flag_value(argc, argv, "absent"), std::nullopt);
}

TEST(FlagScan, ValueAtEndOfArgv) {
  const char* argv_c[] = {"prog", "--wait"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_TRUE(flag_present(2, argv, "wait"));
  EXPECT_EQ(flag_value(2, argv, "wait"), std::nullopt);
}

}  // namespace
}  // namespace mpcn
