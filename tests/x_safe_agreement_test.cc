// Tests: src/core/x_compete (Figure 5) and src/core/x_safe_agreement
// (Figure 6), including the combination-enumeration helpers and the
// x-crash termination frontier of Theorem 2.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>

#include "src/common/errors.h"
#include "src/core/x_compete.h"
#include "src/core/x_safe_agreement.h"
#include "src/runtime/execution.h"

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 200000) {
  ExecutionOptions o;
  o.seed = seed;
  o.step_limit = limit;
  return o;
}

std::vector<Value> int_inputs(int n) {
  std::vector<Value> v;
  for (int i = 0; i < n; ++i) v.push_back(Value(i));
  return v;
}

// --- combination enumeration (SET_LIST) ---

TEST(Combinations, UnrankEnumeratesLexicographically) {
  // C(4,2) = 6 subsets in lexicographic order.
  const std::vector<std::vector<int>> expected{{0, 1}, {0, 2}, {0, 3},
                                               {1, 2}, {1, 3}, {2, 3}};
  for (std::int64_t r = 0; r < 6; ++r) {
    EXPECT_EQ(unrank_combination(4, 2, r),
              expected[static_cast<std::size_t>(r)]);
  }
}

TEST(Combinations, RankInvertsUnrank) {
  for (int n : {4, 6, 8}) {
    for (int x = 1; x <= n; ++x) {
      const std::int64_t m = binomial(n, x);
      for (std::int64_t r = 0; r < m; ++r) {
        EXPECT_EQ(rank_combination(n, unrank_combination(n, x, r)), r);
      }
    }
  }
}

TEST(Combinations, EverySubsetHasXMembers) {
  const std::int64_t m = binomial(7, 3);
  std::set<std::vector<int>> seen;
  for (std::int64_t r = 0; r < m; ++r) {
    std::vector<int> s = unrank_combination(7, 3, r);
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    seen.insert(s);
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), m);  // all distinct
}

// --- XCompete (Figure 5) ---

class XCompeteWinnerCount
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(XCompeteWinnerCount, AtMostXWinners) {
  const int x = std::get<0>(GetParam());
  const int contenders = std::get<1>(GetParam());
  const std::uint64_t seed = std::get<2>(GetParam());
  auto xc = std::make_shared<XCompete>(x);
  auto winners = std::make_shared<std::atomic<int>>(0);
  std::vector<Program> p;
  for (int i = 0; i < contenders; ++i) {
    p.push_back([xc, winners](ProcessContext& ctx) {
      if (xc->compete(ctx)) winners->fetch_add(1);
      ctx.decide(Value(0));
    });
  }
  Outcome out =
      run_execution(std::move(p), int_inputs(contenders), lockstep(seed));
  ASSERT_FALSE(out.timed_out);
  EXPECT_LE(winners->load(), x);
  if (contenders <= x) {
    // "if x or less processes invoke it, the ones that do not crash all
    //  obtain true"
    EXPECT_EQ(winners->load(), contenders);
  } else {
    EXPECT_EQ(winners->load(), x);  // exactly x with > x contenders
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, XCompeteWinnerCount,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 4, 6, 8),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(XCompete, NeedsPositiveX) { EXPECT_THROW(XCompete(0), ProtocolError); }

TEST(XCompete, CrashedContendersDoNotStealSlots) {
  // 3 contenders, x = 2, one crashes before competing: both survivors win.
  auto xc = std::make_shared<XCompete>(2);
  auto winners = std::make_shared<std::atomic<int>>(0);
  ExecutionOptions o = lockstep(9);
  o.crashes = CrashPlan::fixed({{0, 1}});  // p0 crashes at its first step
  std::vector<Program> p;
  for (int i = 0; i < 3; ++i) {
    p.push_back([xc, winners](ProcessContext& ctx) {
      if (xc->compete(ctx)) winners->fetch_add(1);
      ctx.decide(Value(0));
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(3), o);
  ASSERT_FALSE(out.timed_out);
  EXPECT_EQ(winners->load(), 2);
}

// --- XSafeAgreement (Figure 6) ---

class XSafeAgreementProperties
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(XSafeAgreementProperties, AgreementValidityTermination) {
  const int n = std::get<0>(GetParam());
  const int x = std::get<1>(GetParam());
  const std::uint64_t seed = std::get<2>(GetParam());
  if (x > n) GTEST_SKIP() << "x <= width required";
  auto xsa = std::make_shared<XSafeAgreement>(n, x);
  std::vector<Program> p;
  for (int i = 0; i < n; ++i) {
    p.push_back([xsa](ProcessContext& ctx) {
      xsa->propose(ctx, ctx.input());
      ctx.decide(xsa->decide(ctx));
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(n), lockstep(seed));
  ASSERT_FALSE(out.timed_out);
  ASSERT_TRUE(out.all_correct_decided());
  std::set<Value> decided = out.distinct_decisions();
  ASSERT_EQ(decided.size(), 1u);
  const std::int64_t v = decided.begin()->as_int();
  EXPECT_GE(v, 0);
  EXPECT_LT(v, n);
  EXPECT_LE(xsa->owners_elected(), x);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, XSafeAgreementProperties,
    ::testing::Combine(::testing::Values(2, 4, 6), ::testing::Values(1, 2, 3),
                       ::testing::Range<std::uint64_t>(1, 8)));

TEST(XSafeAgreement, ParametersValidated) {
  EXPECT_THROW(XSafeAgreement(2, 3), ProtocolError);
  EXPECT_THROW(XSafeAgreement(2, 0), ProtocolError);
}

TEST(XSafeAgreement, OneShotDiscipline) {
  auto xsa = std::make_shared<XSafeAgreement>(2, 2);
  std::vector<Program> p{
      [xsa](ProcessContext& ctx) {
        EXPECT_THROW(xsa->decide(ctx), ProtocolError);
        xsa->propose(ctx, Value(1));
        EXPECT_THROW(xsa->propose(ctx, Value(2)), ProtocolError);
        ctx.decide(xsa->decide(ctx));
      },
      [xsa](ProcessContext& ctx) {
        xsa->propose(ctx, Value(5));
        ctx.decide(xsa->decide(ctx));
      }};
  Outcome out = run_execution(std::move(p), int_inputs(2), lockstep(1));
  EXPECT_FALSE(out.timed_out);
}

TEST(XSafeAgreement, LazyObjectsStayBounded) {
  // Owners only touch subsets containing themselves: the number of
  // consensus objects materialized is at most x * C(n-1, x-1).
  const int n = 6, x = 2;
  auto xsa = std::make_shared<XSafeAgreement>(n, x);
  std::vector<Program> p;
  for (int i = 0; i < n; ++i) {
    p.push_back([xsa](ProcessContext& ctx) {
      xsa->propose(ctx, ctx.input());
      ctx.decide(xsa->decide(ctx));
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(n), lockstep(2));
  ASSERT_FALSE(out.timed_out);
  EXPECT_LE(xsa->consensus_objects_created(), x * binomial(n - 1, x - 1));
  EXPECT_GT(xsa->consensus_objects_created(), 0);
}

// --- Theorem 2's termination frontier ---
//
// With x = 2: ONE owner crashing mid-propose must NOT block deciders
// (x-1 = 1 crash tolerated)...
TEST(XSafeAgreement, ToleratesXMinus1OwnerCrashes) {
  const int n = 4, x = 2;
  auto xsa = std::make_shared<XSafeAgreement>(n, x);
  ExecutionOptions o = lockstep(3);
  // p0 starts proposing first (others held back), wins a T&S slot, then
  // crashes mid-scan. p1..p3 must still decide.
  o.crashes = CrashPlan::fixed({{0, 3}});
  std::vector<Program> p;
  p.push_back([xsa](ProcessContext& ctx) {
    xsa->propose(ctx, Value(0));
    ctx.decide(xsa->decide(ctx));
  });
  for (int i = 1; i < n; ++i) {
    p.push_back([xsa](ProcessContext& ctx) {
      for (int w = 0; w < 30; ++w) ctx.yield();
      xsa->propose(ctx, ctx.input());
      ctx.decide(xsa->decide(ctx));
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(n), o);
  EXPECT_TRUE(out.crashed[0]);
  ASSERT_FALSE(out.timed_out) << "x-1 = 1 crash must be tolerated";
  EXPECT_TRUE(out.all_correct_decided());
  EXPECT_EQ(out.distinct_decisions().size(), 1u);
}

// ...while BOTH owners crashing mid-propose blocks everyone (x crashes
// exceed the tolerance).
TEST(XSafeAgreement, XOwnerCrashesBlock) {
  const int n = 4, x = 2;
  auto xsa = std::make_shared<XSafeAgreement>(n, x);
  ExecutionOptions o = lockstep(4, /*limit=*/30000);
  // p0 and p1 go first, each wins a T&S slot (2 owners), both crash
  // mid-scan before publishing. p2, p3 become non-owners and block.
  o.crashes = CrashPlan::fixed({{0, 3}, {1, 4}});
  std::vector<Program> p;
  for (int i = 0; i < 2; ++i) {
    p.push_back([xsa](ProcessContext& ctx) {
      xsa->propose(ctx, ctx.input());
      ctx.decide(xsa->decide(ctx));
    });
  }
  for (int i = 2; i < n; ++i) {
    p.push_back([xsa](ProcessContext& ctx) {
      for (int w = 0; w < 60; ++w) ctx.yield();
      xsa->propose(ctx, ctx.input());
      ctx.decide(xsa->decide(ctx));
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(n), o);
  EXPECT_TRUE(out.crashed[0]);
  EXPECT_TRUE(out.crashed[1]);
  if (xsa->owners_elected() == 2 && !xsa->has_decided_value()) {
    // Both crashed simulators were the owners: deciders must block.
    EXPECT_TRUE(out.timed_out);
    EXPECT_FALSE(out.decisions[2].has_value());
    EXPECT_FALSE(out.decisions[3].has_value());
  }
}

TEST(XSafeAgreement, XEquals1DegeneratesButWorks) {
  // x = 1: single owner; failure-free it must behave like safe agreement.
  const int n = 3;
  auto xsa = std::make_shared<XSafeAgreement>(n, 1);
  std::vector<Program> p;
  for (int i = 0; i < n; ++i) {
    p.push_back([xsa](ProcessContext& ctx) {
      xsa->propose(ctx, ctx.input());
      ctx.decide(xsa->decide(ctx));
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(n), lockstep(5));
  ASSERT_FALSE(out.timed_out);
  EXPECT_EQ(out.distinct_decisions().size(), 1u);
}

// ------------------------------------------------- SET_LIST pruning

TEST(MemberCombinationScan, MatchesFilteredGlobalOrder) {
  for (int n : {3, 5, 7, 9}) {
    for (int x = 1; x <= n; ++x) {
      for (int member = 0; member < n; ++member) {
        SCOPED_TRACE("n=" + std::to_string(n) + " x=" + std::to_string(x) +
                     " member=" + std::to_string(member));
        // Reference: walk the full SET_LIST and keep subsets containing
        // `member` — the scan every owner used to perform.
        std::vector<std::pair<std::int64_t, std::vector<int>>> expected;
        for (std::int64_t l = 0; l < binomial(n, x); ++l) {
          const std::vector<int> subset = unrank_combination(n, x, l);
          for (int e : subset) {
            if (e == member) {
              expected.emplace_back(l, subset);
              break;
            }
          }
        }
        EXPECT_EQ(member_combination_scan(n, x, member), expected);
      }
    }
  }
}

TEST(MemberCombinationScan, CountsMatchTheLazyMaterializationBound) {
  // |scan(n, x, i)| = C(n-1, x-1): exactly the subsets an owner funnels
  // through (the x_safe_agreement.h lazy-materialization comment).
  EXPECT_EQ(member_combination_scan(12, 5, 0).size(),
            static_cast<std::size_t>(binomial(11, 4)));
  EXPECT_EQ(member_combination_scan(2, 1, 1).size(), 1u);
  EXPECT_TRUE(member_combination_scan(4, 2, 7).empty());  // out of range
}

}  // namespace
}  // namespace mpcn
