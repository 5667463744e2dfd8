// Unit + property tests: src/objects — test&set and x-consensus.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>

#include "src/common/errors.h"
#include "src/objects/test_and_set.h"
#include "src/objects/x_consensus.h"
#include "src/runtime/execution.h"

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 300000) {
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

// --- TestAndSet ---

class TestAndSetWinners : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TestAndSetWinners, ExactlyOneWinner) {
  auto ts = std::make_shared<TestAndSet>();
  auto winners = std::make_shared<std::atomic<int>>(0);
  std::vector<Program> p;
  for (int i = 0; i < 6; ++i) {
    p.push_back([ts, winners](ProcessContext& ctx) {
      if (ts->test_and_set(ctx)) winners->fetch_add(1);
      ctx.decide(Value(0));
    });
  }
  run_execution(std::move(p), int_inputs(6), lockstep(GetParam()));
  EXPECT_EQ(winners->load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TestAndSetWinners,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(TestAndSet, TakenReflectsState) {
  auto ts = std::make_shared<TestAndSet>();
  EXPECT_FALSE(ts->taken());
  std::vector<Program> p{[ts](ProcessContext& ctx) {
    EXPECT_TRUE(ts->test_and_set(ctx));
    EXPECT_FALSE(ts->test_and_set(ctx));  // second invocation loses
    ctx.decide(Value(0));
  }};
  run_execution(std::move(p), {Value(0)}, lockstep(1));
  EXPECT_TRUE(ts->taken());
}

// --- XConsensus ---

TEST(XConsensus, PortEnforcement) {
  const std::set<ProcessId> ports{0, 1};
  auto xc = std::make_shared<XConsensus>(ports.begin(), ports.end());
  std::vector<Program> p{
      [xc](ProcessContext& ctx) {
        xc->propose(ctx, Value(1));
        ctx.decide(Value(0));
      },
      [](ProcessContext& ctx) { ctx.decide(Value(0)); },
      [xc](ProcessContext& ctx) {
        EXPECT_THROW(xc->propose(ctx, Value(2)), ProtocolError);
        ctx.decide(Value(0));
      }};
  run_execution(std::move(p), int_inputs(3), lockstep(3));
}

TEST(XConsensus, DoubleProposeThrows) {
  const std::set<ProcessId> ports{0};
  auto xc = std::make_shared<XConsensus>(ports.begin(), ports.end());
  std::vector<Program> p{[xc](ProcessContext& ctx) {
    xc->propose(ctx, Value(1));
    EXPECT_THROW(xc->propose(ctx, Value(2)), ProtocolError);
    ctx.decide(Value(0));
  }};
  run_execution(std::move(p), {Value(0)}, lockstep(4));
}

TEST(XConsensus, EmptyPortsRejected) {
  const std::set<ProcessId> none;
  EXPECT_THROW(XConsensus(none.begin(), none.end()), ProtocolError);
}

class XConsensusAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XConsensusAgreement, ValidityAndAgreement) {
  const int x = 4;
  std::set<ProcessId> ports{0, 1, 2, 3};
  auto xc = std::make_shared<XConsensus>(ports.begin(), ports.end());
  std::vector<Program> p;
  for (int i = 0; i < x; ++i) {
    p.push_back([xc](ProcessContext& ctx) {
      ctx.decide(xc->propose(ctx, ctx.input()));
    });
  }
  Outcome out =
      run_execution(std::move(p), int_inputs(x), lockstep(GetParam()));
  std::set<Value> decided = out.distinct_decisions();
  ASSERT_EQ(decided.size(), 1u);  // agreement
  const std::int64_t v = decided.begin()->as_int();
  EXPECT_GE(v, 0);  // validity: a proposed input
  EXPECT_LT(v, x);
  EXPECT_TRUE(xc->has_decided());
  EXPECT_EQ(xc->decided()->as_int(), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XConsensusAgreement,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace mpcn
