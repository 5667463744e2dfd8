// Tests: src/tasks — validators and the algorithm zoo run *natively* in
// their own models (the baselines the simulations are compared against).
#include <gtest/gtest.h>

#include "src/common/errors.h"
#include "src/experiment/experiment.h"
#include "src/tasks/algorithms.h"
#include "src/tasks/task.h"

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 400000) {
  ExecutionOptions o;
  o.seed = seed;
  o.step_limit = limit;
  return o;
}

std::vector<Value> int_inputs(int n, int base = 0) {
  std::vector<Value> v;
  for (int i = 0; i < n; ++i) v.push_back(Value(base + i));
  return v;
}

// --- validators ---

TEST(KSetTask, AcceptsLegalOutputs) {
  KSetAgreementTask task(2);
  std::vector<Value> in{Value(1), Value(2), Value(3)};
  std::vector<std::optional<Value>> out{Value(1), Value(2), Value(1)};
  EXPECT_TRUE(task.validate(in, out));
}

TEST(KSetTask, RejectsTooManyValues) {
  KSetAgreementTask task(2);
  std::vector<Value> in{Value(1), Value(2), Value(3)};
  std::vector<std::optional<Value>> out{Value(1), Value(2), Value(3)};
  std::string why;
  EXPECT_FALSE(task.validate(in, out, &why));
  EXPECT_NE(why.find("agreement"), std::string::npos);
}

TEST(KSetTask, RejectsUnproposedValue) {
  KSetAgreementTask task(3);
  std::vector<Value> in{Value(1), Value(2)};
  std::vector<std::optional<Value>> out{Value(9), std::nullopt};
  std::string why;
  EXPECT_FALSE(task.validate(in, out, &why));
  EXPECT_NE(why.find("validity"), std::string::npos);
}

TEST(KSetTask, UndecidedEntriesUnconstrained) {
  KSetAgreementTask task(1);
  std::vector<Value> in{Value(5), Value(5)};
  std::vector<std::optional<Value>> out{std::nullopt, std::nullopt};
  EXPECT_TRUE(task.validate(in, out));
}

TEST(KSetTask, NamesAndNumbers) {
  EXPECT_EQ(KSetAgreementTask(3).name(), "3-set-agreement");
  EXPECT_EQ(KSetAgreementTask(3).set_consensus_number(), 3);
  EXPECT_EQ(ConsensusTask().name(), "consensus");
  EXPECT_EQ(ConsensusTask().set_consensus_number(), 1);
  EXPECT_THROW(KSetAgreementTask(0), ProtocolError);
}

TEST(RenamingCheck, DistinctNamesInRange) {
  RenamingCheck c{5};
  std::vector<std::optional<Value>> ok{Value(1), Value(3), std::nullopt};
  EXPECT_TRUE(c.validate(ok));
  std::vector<std::optional<Value>> dup{Value(2), Value(2)};
  EXPECT_FALSE(c.validate(dup));
  std::vector<std::optional<Value>> range{Value(6)};
  EXPECT_FALSE(c.validate(range));
  std::vector<std::optional<Value>> zero{Value(0)};
  EXPECT_FALSE(c.validate(zero));
  std::vector<std::optional<Value>> notint{Value("a")};
  EXPECT_FALSE(c.validate(notint));
}

// --- trivial k-set, native, across (n, t) with crashes ---

class TrivialKsetNative
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(TrivialKsetNative, SolvesTplus1SetAgreement) {
  const int n = std::get<0>(GetParam());
  const int t = std::get<1>(GetParam());
  const std::uint64_t seed = std::get<2>(GetParam());
  if (t >= n) GTEST_SKIP();
  SimulatedAlgorithm a = trivial_kset_algorithm(n, t);
  ExecutionOptions o = lockstep(seed);
  o.crashes = CrashPlan::hazard(0.002, t, seed * 7 + 1);
  Outcome out = Experiment::of(a)
                    .direct()
                    .inputs(int_inputs(n))
                    .base_options(o)
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  KSetAgreementTask task(t + 1);
  std::string why;
  EXPECT_TRUE(task.validate(int_inputs(n), out.decisions, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TrivialKsetNative,
    ::testing::Combine(::testing::Values(3, 5, 7), ::testing::Values(1, 2, 4),
                       ::testing::Range<std::uint64_t>(1, 6)));

// --- group k-set, native in ASM(n,t,x), across (n, t, x) with crashes ---

class GroupKsetNative : public ::testing::TestWithParam<
                            std::tuple<int, int, int, std::uint64_t>> {};

TEST_P(GroupKsetNative, SolvesFloorPlus1SetAgreement) {
  const int n = std::get<0>(GetParam());
  const int t = std::get<1>(GetParam());
  const int x = std::get<2>(GetParam());
  const std::uint64_t seed = std::get<3>(GetParam());
  if (t >= n || x > n || floor_div(n, x) <= floor_div(t, x)) GTEST_SKIP();
  SimulatedAlgorithm a = group_kset_algorithm(n, t, x);
  ExecutionOptions o = lockstep(seed);
  o.crashes = CrashPlan::hazard(0.002, t, seed * 13 + 5);
  Outcome out = Experiment::of(a)
                    .direct()
                    .inputs(int_inputs(n, 50))
                    .base_options(o)
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  const int k = floor_div(t, x) + 1;  // the paper's frontier
  KSetAgreementTask task(k);
  std::string why;
  EXPECT_TRUE(task.validate(int_inputs(n, 50), out.decisions, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GroupKsetNative,
    ::testing::Combine(::testing::Values(4, 6), ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3),
                       ::testing::Range<std::uint64_t>(1, 4)));

TEST(GroupKset, PreconditionEnforced) {
  // ⌊n/x⌋ must exceed ⌊t/x⌋: ASM(7,6,3) has ⌊7/3⌋ = 2 = ⌊6/3⌋.
  EXPECT_THROW(group_kset_algorithm(7, 6, 3), ProtocolError);
}

TEST(SingleObjectConsensus, NativeRun) {
  SimulatedAlgorithm a = single_object_consensus_algorithm(4, 2, 4);
  Outcome out = Experiment::of(a)
                    .direct()
                    .inputs(int_inputs(4, 9))
                    .base_options(lockstep(3))
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  EXPECT_EQ(out.distinct_decisions().size(), 1u);
}

TEST(SingleObjectConsensus, RequiresWideObject) {
  EXPECT_THROW(single_object_consensus_algorithm(4, 2, 3), ProtocolError);
}

// --- renaming, native, wait-free ---

class RenamingNative
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RenamingNative, DistinctNamesWithin2nMinus1) {
  const int n = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  SimulatedAlgorithm a = snapshot_renaming_algorithm(n);
  ExecutionOptions o = lockstep(seed, 2'000'000);
  Outcome out = Experiment::of(a)
                    .direct()
                    .inputs(*a.static_inputs)
                    .base_options(o)
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  RenamingCheck check{2 * n - 1};
  std::string why;
  EXPECT_TRUE(check.validate(out.decisions, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RenamingNative,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Range<std::uint64_t>(1, 9)));

TEST(RenamingNative, SurvivesCrashes) {
  // Wait-free: any number of crashes < n leaves survivors deciding.
  const int n = 5;
  SimulatedAlgorithm a = snapshot_renaming_algorithm(n);
  ExecutionOptions o = lockstep(77, 2'000'000);
  o.crashes = CrashPlan::hazard(0.01, n - 1, 99);
  Outcome out = Experiment::of(a)
                    .direct()
                    .inputs(*a.static_inputs)
                    .base_options(o)
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  RenamingCheck check{2 * n - 1};
  std::string why;
  EXPECT_TRUE(check.validate(out.decisions, &why)) << why;
}

TEST(IdentityColored, NativeRun) {
  SimulatedAlgorithm a = identity_colored_algorithm(4, 1, 2);
  Outcome out = Experiment::of(a)
                    .direct()
                    .inputs(*a.static_inputs)
                    .base_options(lockstep(5))
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  for (int j = 0; j < 4; ++j) {
    ASSERT_TRUE(out.decisions[j].has_value());
    EXPECT_EQ(out.decisions[j]->as_int(), j + 1);
  }
}

// Algorithm structural validation.
TEST(SimulatedAlgorithmValidate, CatchesBadDeclarations) {
  SimulatedAlgorithm a = trivial_kset_algorithm(3, 1);
  a.xcons.push_back({"too-wide", {0, 1}});  // |ports| = 2 > x = 1
  EXPECT_THROW(a.validate(), ProtocolError);

  SimulatedAlgorithm b = group_kset_algorithm(4, 2, 2);
  b.xcons.push_back({"G0", {0}});  // duplicate name
  EXPECT_THROW(b.validate(), ProtocolError);

  SimulatedAlgorithm c = trivial_kset_algorithm(3, 1);
  c.static_inputs = std::vector<Value>{Value(1)};  // wrong size
  EXPECT_THROW(c.validate(), ProtocolError);

  SimulatedAlgorithm d = trivial_kset_algorithm(3, 1);
  d.programs.pop_back();  // wrong count
  EXPECT_THROW(d.validate(), ProtocolError);
}

}  // namespace
}  // namespace mpcn
