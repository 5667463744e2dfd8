// Unit tests: src/common — Value semantics, ids arithmetic, RNG.
#include <gtest/gtest.h>

#include <unordered_set>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/value.h"

namespace mpcn {
namespace {

TEST(Value, DefaultIsNil) {
  Value v;
  EXPECT_TRUE(v.is_nil());
  EXPECT_FALSE(v.is_int());
  EXPECT_EQ(v, Value::nil());
}

TEST(Value, IntRoundTrip) {
  Value v(42);
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 42);
}

TEST(Value, StringRoundTrip) {
  Value v("hello");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "hello");
}

TEST(Value, ListRoundTrip) {
  Value v = Value::list({Value(1), Value("x"), Value::nil()});
  ASSERT_TRUE(v.is_list());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(0).as_int(), 1);
  EXPECT_EQ(v.at(1).as_string(), "x");
  EXPECT_TRUE(v.at(2).is_nil());
}

TEST(Value, PairHelper) {
  Value p = Value::pair(Value(7), Value(9));
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.at(0).as_int(), 7);
  EXPECT_EQ(p.at(1).as_int(), 9);
}

TEST(Value, EqualityIsStructural) {
  EXPECT_EQ(Value::list({Value(1), Value(2)}), Value::list({Value(1), Value(2)}));
  EXPECT_NE(Value::list({Value(1)}), Value::list({Value(2)}));
  EXPECT_NE(Value(1), Value("1"));
}

TEST(Value, TotalOrderAcrossKinds) {
  // nil < int < string < list
  EXPECT_LT(Value::nil(), Value(0));
  EXPECT_LT(Value(5), Value("a"));
  EXPECT_LT(Value("z"), Value::list({}));
}

TEST(Value, IntOrder) {
  EXPECT_LT(Value(-3), Value(2));
  EXPECT_FALSE(Value(2) < Value(2));
}

TEST(Value, ListLexicographicOrder) {
  EXPECT_LT(Value::list({Value(1)}), Value::list({Value(1), Value(0)}));
  EXPECT_LT(Value::list({Value(1), Value(2)}), Value::list({Value(2)}));
}

TEST(Value, HashConsistentWithEquality) {
  Value a = Value::list({Value(1), Value("q")});
  Value b = Value::list({Value(1), Value("q")});
  EXPECT_EQ(a.hash(), b.hash());
  std::unordered_set<Value> s;
  s.insert(a);
  EXPECT_TRUE(s.count(b));
}

TEST(Value, ToStringFormats) {
  EXPECT_EQ(Value::nil().to_string(), "nil");
  EXPECT_EQ(Value(3).to_string(), "3");
  EXPECT_EQ(Value("hi").to_string(), "\"hi\"");
  EXPECT_EQ(Value::list({Value(1), Value(2)}).to_string(), "[1, 2]");
}

TEST(Value, AccessorThrowsOnWrongKind) {
  EXPECT_THROW(Value(1).as_string(), std::bad_variant_access);
  EXPECT_THROW(Value("s").as_int(), std::bad_variant_access);
}

TEST(Ids, FloorDivMatchesPaper) {
  EXPECT_EQ(floor_div(8, 1), 8);
  EXPECT_EQ(floor_div(8, 2), 4);
  EXPECT_EQ(floor_div(8, 3), 2);
  EXPECT_EQ(floor_div(8, 4), 2);
  EXPECT_EQ(floor_div(8, 5), 1);
  EXPECT_EQ(floor_div(8, 8), 1);
  EXPECT_EQ(floor_div(8, 9), 0);
}

TEST(Ids, FloorDivRejectsBadInput) {
  EXPECT_THROW(floor_div(-1, 2), std::invalid_argument);
  EXPECT_THROW(floor_div(3, 0), std::invalid_argument);
}

TEST(Ids, Binomial) {
  EXPECT_EQ(binomial(4, 2), 6);
  EXPECT_EQ(binomial(10, 3), 120);
  EXPECT_EQ(binomial(5, 0), 1);
  EXPECT_EQ(binomial(5, 5), 1);
  EXPECT_EQ(binomial(3, 4), 0);
}

TEST(Ids, ThreadIdToString) {
  EXPECT_EQ((ThreadId{3, 0}).to_string(), "q3");
  EXPECT_EQ((ThreadId{3, 2}).to_string(), "q3.1");
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.index(1000), b.index(1000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.index(1 << 30) == b.index(1 << 30)) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, IndexInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.index(13), 13u);
  }
}

TEST(Rng, SplitMixDistinctStreams) {
  std::uint64_t s = 99;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace mpcn
