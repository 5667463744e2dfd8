// Tests: src/core/safe_agreement (Figure 1) — agreement/validity under
// adversarial schedules, termination when no crash hits a propose, and
// the *blocking* behaviour when a crash lands inside a propose section
// (the property the whole BG simulation is built around).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/common/errors.h"
#include "src/core/safe_agreement.h"
#include "src/runtime/execution.h"

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 100000) {
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

class SafeAgreementProperties
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(SafeAgreementProperties, AgreementValidityTermination) {
  const int n = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  auto sa = std::make_shared<SafeAgreement>(n);
  std::vector<Program> p;
  for (int i = 0; i < n; ++i) {
    p.push_back([sa](ProcessContext& ctx) {
      sa->propose(ctx, ctx.input());
      ctx.decide(sa->decide(ctx));
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(n), lockstep(seed));
  ASSERT_FALSE(out.timed_out) << "no crash => every decide returns";
  ASSERT_TRUE(out.all_correct_decided());
  std::set<Value> decided = out.distinct_decisions();
  ASSERT_EQ(decided.size(), 1u) << "agreement: at most one value decided";
  const std::int64_t v = decided.begin()->as_int();
  EXPECT_GE(v, 0);
  EXPECT_LT(v, n);  // validity: a proposed value
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SafeAgreementProperties,
    ::testing::Combine(::testing::Values(2, 3, 5, 6, 8),
                       ::testing::Range<std::uint64_t>(1, 21)));

TEST(SafeAgreement, OneShotDisciplineEnforced) {
  auto sa = std::make_shared<SafeAgreement>(2);
  std::vector<Program> p{
      [sa](ProcessContext& ctx) {
        sa->propose(ctx, Value(1));
        EXPECT_THROW(sa->propose(ctx, Value(2)), ProtocolError);
        (void)sa->decide(ctx);
        EXPECT_THROW(sa->decide(ctx), ProtocolError);
        ctx.decide(Value(0));
      },
      [sa](ProcessContext& ctx) {
        EXPECT_THROW(sa->decide(ctx), ProtocolError);  // decide before propose
        sa->propose(ctx, Value(5));
        ctx.decide(sa->decide(ctx));
      }};
  Outcome out = run_execution(std::move(p), int_inputs(2), lockstep(1));
  EXPECT_FALSE(out.timed_out);
}

TEST(SafeAgreement, PidOutOfWidthRejected) {
  auto sa = std::make_shared<SafeAgreement>(1);
  std::vector<Program> p{
      [](ProcessContext& ctx) { ctx.decide(Value(0)); },
      [sa](ProcessContext& ctx) {
        EXPECT_THROW(sa->propose(ctx, Value(1)), ProtocolError);
        ctx.decide(Value(0));
      }};
  run_execution(std::move(p), int_inputs(2), lockstep(2));
}

// The decided value is the stable value of the *smallest simulator id*
// among stable entries (Figure 1, line 05). Sequential check: if q0
// completes propose first, its value must win regardless of later
// proposers.
TEST(SafeAgreement, SmallestStableIdWins) {
  auto sa = std::make_shared<SafeAgreement>(3);
  auto gate = std::make_shared<std::atomic<int>>(0);
  std::vector<Program> p{
      [sa, gate](ProcessContext& ctx) {
        sa->propose(ctx, Value("zero"));
        gate->store(1);
        ctx.decide(sa->decide(ctx));
      },
      [sa, gate](ProcessContext& ctx) {
        while (gate->load() < 1) ctx.yield();
        sa->propose(ctx, Value("one"));
        ctx.decide(sa->decide(ctx));
      },
      [sa, gate](ProcessContext& ctx) {
        while (gate->load() < 1) ctx.yield();
        sa->propose(ctx, Value("two"));
        ctx.decide(sa->decide(ctx));
      }};
  Outcome out = run_execution(std::move(p), int_inputs(3), lockstep(3));
  ASSERT_FALSE(out.timed_out);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(out.decisions[i].has_value());
    EXPECT_EQ(out.decisions[i]->as_string(), "zero");
  }
}

// --- the blocking property ---
//
// sa_propose takes exactly 3 snapshot-object steps (write, snapshot,
// write). A process crashing after its 1st step (the level-1 write) but
// before its 3rd leaves an eternally-unstable entry: every decide blocks.
TEST(SafeAgreement, CrashInsideProposeBlocksDeciders) {
  auto sa = std::make_shared<SafeAgreement>(2);
  ExecutionOptions o = lockstep(4, /*limit=*/20000);
  // p0's steps: 1 = SM[0] <- (v,1); crash at step 2 (before the snapshot).
  o.crashes = CrashPlan::fixed({{0, 2}});
  std::vector<Program> p{
      [sa](ProcessContext& ctx) {
        sa->propose(ctx, Value(1));
        ctx.decide(sa->decide(ctx));
      },
      [sa](ProcessContext& ctx) {
        for (int i = 0; i < 20; ++i) ctx.yield();  // let p0 crash first
        sa->propose(ctx, Value(2));
        ctx.decide(sa->decide(ctx));
      }};
  Outcome out = run_execution(std::move(p), int_inputs(2), o);
  EXPECT_TRUE(out.crashed[0]);
  EXPECT_TRUE(out.timed_out) << "decider must block forever";
  EXPECT_FALSE(out.decisions[1].has_value());
}

// A crash *outside* any propose section must not block anyone.
TEST(SafeAgreement, CrashAfterProposeDoesNotBlock) {
  auto sa = std::make_shared<SafeAgreement>(2);
  ExecutionOptions o = lockstep(5);
  // p0 completes its 3-step propose, then crashes at its 4th step.
  o.crashes = CrashPlan::fixed({{0, 4}});
  std::vector<Program> p{
      [sa](ProcessContext& ctx) {
        sa->propose(ctx, Value(1));
        ctx.decide(sa->decide(ctx));  // crashes in here; fine
      },
      [sa](ProcessContext& ctx) {
        for (int i = 0; i < 20; ++i) ctx.yield();
        sa->propose(ctx, Value(2));
        ctx.decide(sa->decide(ctx));
      }};
  Outcome out = run_execution(std::move(p), int_inputs(2), o);
  EXPECT_TRUE(out.crashed[0]);
  ASSERT_FALSE(out.timed_out);
  ASSERT_TRUE(out.decisions[1].has_value());
  EXPECT_EQ(out.decisions[1]->as_int(), 1) << "p0 stabilized before crashing";
}

// Sweep the crash position across p0's whole propose+decide window and
// assert the dichotomy: blocked iff the crash hit the propose section
// with p0's entry left unstable (i.e. strictly between the level-1 write
// and the stabilizing write).
class SafeAgreementCrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(SafeAgreementCrashSweep, BlockedIffUnstableEntryLeft) {
  const int crash_step = GetParam();
  auto sa = std::make_shared<SafeAgreement>(2);
  ExecutionOptions o = lockstep(6, /*limit=*/20000);
  o.crashes = CrashPlan::fixed({{0, static_cast<std::uint64_t>(crash_step)}});
  std::vector<Program> p{
      [sa](ProcessContext& ctx) {
        sa->propose(ctx, Value(1));
        ctx.decide(sa->decide(ctx));
      },
      [sa](ProcessContext& ctx) {
        for (int i = 0; i < 20; ++i) ctx.yield();
        sa->propose(ctx, Value(2));
        ctx.decide(sa->decide(ctx));
      }};
  Outcome out = run_execution(std::move(p), int_inputs(2), o);
  // Steps of p0: 1 write(v,1) | 2 snapshot | 3 write(v,2) | 4 decide's
  // snapshot (p0 is stable and alone, so it decides after one) — p0 takes
  // exactly 4 steps, so only crash points 2..4 can fire.
  EXPECT_TRUE(out.crashed[0]);
  const bool expect_blocked = crash_step == 2 || crash_step == 3;
  EXPECT_EQ(out.timed_out, expect_blocked)
      << "crash at p0 step " << crash_step;
  EXPECT_EQ(out.decisions[1].has_value(), !expect_blocked);
}

INSTANTIATE_TEST_SUITE_P(CrashSteps, SafeAgreementCrashSweep,
                         ::testing::Range(2, 5));

}  // namespace
}  // namespace mpcn
