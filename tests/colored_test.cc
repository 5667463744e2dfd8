// Tests: src/core/colored_engine — the Section 5.5 colored-task
// simulation: distinct claims via T&S, the three legality conditions,
// renaming end-to-end.
#include <gtest/gtest.h>

#include <set>

#include "src/common/errors.h"
#include "src/core/colored_engine.h"
#include "src/runtime/execution.h"
#include "src/tasks/algorithms.h"
#include "src/tasks/task.h"

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 1500000) {
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

// Unpack the simulator decisions pair(j, v) into claimed-j and value
// vectors.
struct ColoredOutputs {
  std::vector<std::optional<std::int64_t>> claimed;  // per simulator
  std::vector<std::optional<Value>> values;
};

ColoredOutputs unpack(const Outcome& out) {
  ColoredOutputs c;
  c.claimed.resize(out.decisions.size());
  c.values.resize(out.decisions.size());
  for (std::size_t i = 0; i < out.decisions.size(); ++i) {
    if (!out.decisions[i]) continue;
    const Value& p = *out.decisions[i];
    c.claimed[i] = p.at(0).as_int();
    c.values[i] = p.at(1);
  }
  return c;
}

TEST(ColoredLegality, RequiresStaticInputs) {
  SimulatedAlgorithm a = trivial_kset_algorithm(6, 1);  // no static inputs
  EXPECT_THROW(make_colored_simulation(a, ModelSpec{4, 1, 2}),
               ProtocolError);
}

TEST(ColoredLegality, RequiresXPrimeAbove1) {
  SimulatedAlgorithm a = identity_colored_algorithm(8, 2, 2);
  EXPECT_THROW(make_colored_simulation(a, ModelSpec{4, 1, 1}),
               ProtocolError);
}

TEST(ColoredLegality, RequiresPowerCondition) {
  // source power ⌊1/2⌋ = 0 < target power ⌊2/2⌋ = 1.
  SimulatedAlgorithm a = identity_colored_algorithm(8, 1, 2);
  EXPECT_THROW(make_colored_simulation(a, ModelSpec{4, 2, 2}),
               ProtocolError);
}

TEST(ColoredLegality, RequiresEnoughSimulatedProcesses) {
  // n' = 4, t' = 1, t = 2: need n >= max(4, (4-1)+2) = 5; n = 4 fails.
  SimulatedAlgorithm a = identity_colored_algorithm(4, 2, 2);
  EXPECT_THROW(make_colored_simulation(a, ModelSpec{4, 1, 2}),
               ProtocolError);
  // n = 5 passes.
  SimulatedAlgorithm b = identity_colored_algorithm(5, 2, 2);
  EXPECT_NO_THROW(make_colored_simulation(b, ModelSpec{4, 1, 2}));
}

class ColoredIdentity
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(ColoredIdentity, DistinctClaimsDistinctNames) {
  const int n_tgt = std::get<0>(GetParam());
  const int t_tgt = std::get<1>(GetParam());
  const std::uint64_t seed = std::get<2>(GetParam());
  if (t_tgt >= n_tgt) GTEST_SKIP();
  // Source sized per the paper's condition with t = t' (power parity with
  // x = x' = 2): n >= max(n', (n'-t') + t).
  const int t_src = t_tgt;
  const int n_src = std::max(n_tgt, (n_tgt - t_tgt) + t_src) + 1;
  SimulatedAlgorithm a = identity_colored_algorithm(n_src, t_src, 2);
  const ModelSpec target{n_tgt, t_tgt, 2};
  std::vector<Program> programs = make_colored_simulation(a, target);
  ExecutionOptions o = lockstep(seed);
  Outcome out =
      run_execution(std::move(programs), int_inputs(n_tgt), o);
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  ColoredOutputs c = unpack(out);
  // No two simulators claim the same simulated process (the T&S rule),
  // and each adopted value is the claimed process's unique name j+1.
  std::set<std::int64_t> claims;
  for (std::size_t i = 0; i < c.claimed.size(); ++i) {
    if (!c.claimed[i]) continue;
    EXPECT_TRUE(claims.insert(*c.claimed[i]).second)
        << "simulated process claimed twice";
    EXPECT_EQ(c.values[i]->as_int(), *c.claimed[i] + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ColoredIdentity,
    ::testing::Combine(::testing::Values(3, 4), ::testing::Values(1, 2),
                       ::testing::Range<std::uint64_t>(1, 6)));

TEST(ColoredIdentity, SurvivesSimulatorCrashes) {
  // n' = 4, t' = 2, x' = 2 (power 1); source needs
  // n >= max(4, (4-2)+t) with t = 2, x = 2 => n >= 5. Use n = 6.
  SimulatedAlgorithm a = identity_colored_algorithm(6, 2, 2);
  const ModelSpec target{4, 2, 2};
  std::vector<Program> programs = make_colored_simulation(a, target);
  ExecutionOptions o = lockstep(3);
  o.crashes = CrashPlan::fixed({{1, 30}, {3, 50}});
  Outcome out = run_execution(std::move(programs), int_inputs(4), o);
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  ColoredOutputs c = unpack(out);
  std::set<std::int64_t> claims;
  for (const auto& cl : c.claimed) {
    if (cl) {
      EXPECT_TRUE(claims.insert(*cl).second);
    }
  }
}

// Renaming through the colored engine: simulators inherit distinct names
// from distinct simulated processes; name space of the *source* run.
class ColoredRenaming : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColoredRenaming, SimulatorsGetDistinctNames) {
  const int n_src = 6;
  // Declared resilience t = 1: Section 5.5 needs n >= max(n', (n'-t')+t)
  // = max(4, 3+1) = 4 <= 6, and power ⌊1/1⌋ = 1 >= target power 0.
  SimulatedAlgorithm a = snapshot_renaming_algorithm(n_src, 1);
  const ModelSpec target{4, 1, 2};  // power 0
  std::vector<Program> programs = make_colored_simulation(a, target);
  ExecutionOptions o = lockstep(GetParam(), 3'000'000);
  Outcome out = run_execution(std::move(programs), int_inputs(4), o);
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  ColoredOutputs c = unpack(out);
  // The adopted names must be pairwise distinct and within the source
  // run's 2n-1 name space.
  RenamingCheck check{2 * n_src - 1};
  std::string why;
  EXPECT_TRUE(check.validate(c.values, &why)) << why;
  std::set<std::int64_t> claims;
  for (const auto& cl : c.claimed) {
    if (cl) {
      EXPECT_TRUE(claims.insert(*cl).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoredRenaming,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace mpcn
