// Tests: src/core/x_compete (Figure 5) and src/core/x_safe_agreement
// (Figure 6), including the SET_LIST table, the x-crash termination
// frontier of Theorem 2 and the allocation contract of the agreement
// objects' hot paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>

#include "src/common/errors.h"
#include "src/core/safe_agreement.h"
#include "src/core/x_compete.h"
#include "src/core/x_safe_agreement.h"
#include "src/runtime/execution.h"

namespace mpcn {
namespace {

// Blocks handed out by the global operator new below, for the allocation
// contract (AllocationContract.*).
std::size_t g_news = 0;

}  // namespace
}  // namespace mpcn

// Out of line: inlined into a caller, GCC takes the malloc/free pair for
// a mismatch with the new/delete pair around it.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++mpcn::g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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

// --- SET_LIST ---

// Every size-x subset of {0..n-1}, in lexicographic order: the reference
// SET_LIST (std::set orders vectors lexicographically).
std::vector<std::vector<int>> all_subsets(int n, int x) {
  std::set<std::vector<int>> subsets;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    std::vector<int> s;
    for (int e = 0; e < n; ++e) {
      if (mask & (1u << e)) s.push_back(e);
    }
    if (static_cast<int>(s.size()) == x) subsets.insert(s);
  }
  return {subsets.begin(), subsets.end()};
}

std::vector<int> row(const SetList& set_list, std::int64_t rank) {
  const ProcessId* m = set_list.members(rank);
  return {m, m + set_list.x()};
}

TEST(SetList, EnumeratesLexicographically) {
  // C(4,2) = 6 subsets in lexicographic order.
  const std::vector<std::vector<int>> expected{{0, 1}, {0, 2}, {0, 3},
                                               {1, 2}, {1, 3}, {2, 3}};
  const SetList set_list(4, 2);
  ASSERT_EQ(set_list.size(), 6);
  for (std::int64_t r = 0; r < 6; ++r) {
    EXPECT_EQ(row(set_list, r), expected[static_cast<std::size_t>(r)]);
  }
}

TEST(SetList, MatchesEveryReferenceSubset) {
  for (int n : {1, 3, 5, 7, 9}) {
    for (int x = 1; x <= n; ++x) {
      const std::vector<std::vector<int>> expected = all_subsets(n, x);
      const SetList set_list(n, x);
      ASSERT_EQ(set_list.size(), binomial(n, x));
      for (std::int64_t r = 0; r < set_list.size(); ++r) {
        EXPECT_EQ(row(set_list, r), expected[static_cast<std::size_t>(r)])
            << "n=" << n << " x=" << x << " rank=" << r;
      }
    }
  }
}

TEST(SetList, ScansMatchFilteredGlobalOrder) {
  for (int n : {3, 5, 7, 9}) {
    for (int x = 1; x <= n; ++x) {
      const SetList set_list(n, x);
      for (int member = 0; member < n; ++member) {
        SCOPED_TRACE("n=" + std::to_string(n) + " x=" + std::to_string(x) +
                     " member=" + std::to_string(member));
        // Reference: walk the full SET_LIST and keep subsets containing
        // `member` — the scan every owner used to perform.
        std::vector<std::int64_t> expected;
        const std::vector<std::vector<int>> subsets = all_subsets(n, x);
        for (std::size_t l = 0; l < subsets.size(); ++l) {
          for (int e : subsets[l]) {
            if (e == member) expected.push_back(static_cast<std::int64_t>(l));
          }
        }
        const SetList::Scan scan = set_list.scan(member);
        EXPECT_EQ(std::vector<std::int64_t>(scan.begin(), scan.end()),
                  expected);
      }
    }
  }
}

TEST(SetList, ScanLengthIsTheLazyMaterializationBound) {
  // |scan(i)| = C(n-1, x-1): exactly the subsets an owner funnels
  // through (the x_safe_agreement.h lazy-materialization comment).
  const SetList wide(12, 5);
  EXPECT_EQ(wide.size(), 792);
  EXPECT_EQ(wide.scan(0).end() - wide.scan(0).begin(), binomial(11, 4));
  const SetList pair(2, 1);
  EXPECT_EQ(pair.scan(1).end() - pair.scan(1).begin(), 1);
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

// --- Allocation contract ---
//
// Counted by the global operator new above, inside lock-step runs: the
// scheduler's grants allocate nothing, so every block counted while one
// process proposes is the agreement object's own.

TEST(AllocationContract, XSafeAgreementOwnerScans) {
  // Three owners of an XSafeAgreement(8, 3) propose one after another.
  // Each scans the C(7, 2) = 21 subsets that contain it; later owners
  // revisit the objects earlier ones created. An owner's propose may
  // allocate the XCONS table (the first owner scan only) and one block
  // per XConsensus it creates, and nothing for the objects it revisits.
  constexpr int x = 3;
  auto xsa = std::make_shared<XSafeAgreement>(8, x);
  struct Scan {
    std::size_t news = 0;
    std::int64_t created = 0;
  };
  auto scans = std::make_shared<std::vector<Scan>>(x);
  auto finished = std::make_shared<int>(0);
  std::vector<Program> p;
  for (int i = 0; i < x; ++i) {
    p.push_back([xsa, scans, finished, i](ProcessContext& ctx) {
      while (*finished < i) ctx.yield();
      Scan& scan = (*scans)[static_cast<std::size_t>(i)];
      const std::int64_t created = xsa->consensus_objects_created();
      const std::size_t news = g_news;
      xsa->propose(ctx, Value(i));
      scan.news = g_news - news;
      scan.created = xsa->consensus_objects_created() - created;
      ++*finished;
      // Finish together: a fiber that ends frees and caches runtime state.
      while (*finished < x) ctx.yield();
      ctx.decide(xsa->decide(ctx));
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(x), lockstep(3));
  ASSERT_FALSE(out.timed_out);
  ASSERT_EQ(xsa->owners_elected(), x);
  // Subsets containing owner i and none of the owners before it.
  const std::int64_t expected_created[] = {21, 15, 10};
  for (int i = 0; i < x; ++i) {
    SCOPED_TRACE("owner " + std::to_string(i));
    const Scan& scan = (*scans)[static_cast<std::size_t>(i)];
    EXPECT_EQ(scan.created, expected_created[i]);
    const std::size_t table = i == 0 ? 1 : 0;
    EXPECT_LE(scan.news, static_cast<std::size_t>(scan.created) + table);
  }
  EXPECT_EQ(xsa->consensus_objects_created(), 21 + 15 + 10);
}

TEST(AllocationContract, XConsensusProposeAllocatesNothing) {
  const std::set<ProcessId> ports{0, 1, 2};
  auto xc = std::make_shared<XConsensus>(ports.begin(), ports.end());
  auto news = std::make_shared<std::size_t>(0);
  std::vector<Program> p;
  for (int i = 0; i < 3; ++i) {
    p.push_back([xc, news](ProcessContext& ctx) {
      const std::size_t before = g_news;
      const Value v = xc->propose(ctx, ctx.input());
      *news += g_news - before;
      ctx.decide(v);
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(3), lockstep(2));
  ASSERT_FALSE(out.timed_out);
  EXPECT_EQ(out.distinct_decisions().size(), 1u);
  EXPECT_EQ(*news, 0u);
}

TEST(AllocationContract, SafeAgreementDecideSpinAllocatesNothing) {
  // p1 crashes inside its propose window, after announcing an unstable
  // entry, so p0's decide spins until the step limit halts the run. The
  // blocks counted from the start of that decide to its unwind are what
  // the spin allocates.
  auto sa = std::make_shared<SafeAgreement>(2);
  auto news = std::make_shared<std::size_t>(0);
  ExecutionOptions o = lockstep(1, /*limit=*/2000);
  o.crashes = CrashPlan::fixed({{1, 2}});  // before p1's line (02)
  struct Count {
    std::shared_ptr<std::size_t> news;
    std::size_t before;
    ~Count() { *news = g_news - before; }
  };
  std::vector<Program> p{
      [sa, news](ProcessContext& ctx) {
        for (int w = 0; w < 20; ++w) ctx.yield();
        sa->propose(ctx, Value(0));
        const Count count{news, g_news};
        ctx.decide(sa->decide(ctx));
      },
      [sa](ProcessContext& ctx) {
        sa->propose(ctx, Value(1));
        ctx.decide(sa->decide(ctx));
      }};
  Outcome out = run_execution(std::move(p), int_inputs(2), o);
  EXPECT_TRUE(out.crashed[1]);
  ASSERT_TRUE(out.timed_out) << "p0's decide must spin to the step limit";
  EXPECT_FALSE(out.decisions[0].has_value());
  EXPECT_EQ(*news, 0u) << "heap blocks over " << out.steps << " steps";
}

}  // namespace
}  // namespace mpcn
