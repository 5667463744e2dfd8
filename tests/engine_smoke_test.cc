// End-to-end smoke tests of the generalized BG engine: small cases of
// the paper's two simulations, run in lock-step with fixed seeds. The
// exhaustive grids live in simulation_test.cc; these are the canaries.
#include <gtest/gtest.h>

#include "src/core/bg_engine.h"
#include "src/experiment/experiment.h"
#include "src/tasks/algorithms.h"
#include "src/tasks/task.h"

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 500000) {
  ExecutionOptions o;
  o.seed = seed;
  o.step_limit = limit;
  return o;
}

std::vector<Value> int_inputs(int n) {
  std::vector<Value> v;
  for (int i = 0; i < n; ++i) v.push_back(Value(100 + i));
  return v;
}

TEST(EngineSmoke, DirectTrivialKset) {
  // ASM(4,1,1): 2-set agreement, failure-free, native run.
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  Outcome out = Experiment::of(a)
                    .direct()
                    .inputs(int_inputs(4))
                    .base_options(lockstep(1))
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  KSetAgreementTask task(2);
  std::string why;
  EXPECT_TRUE(task.validate(int_inputs(4), out.decisions, &why)) << why;
}

TEST(EngineSmoke, BackwardSimulationIntoX2) {
  // Section 4 direction: simulate the 1-resilient read/write algorithm
  // (source ASM(4,1,1)) in ASM(4,3,2) — powers ⌊3/2⌋ = 1 = ⌊1/1⌋.
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  Outcome out = Experiment::of(a)
                    .in(ModelSpec{4, 3, 2})
                    .inputs(int_inputs(4))
                    .base_options(lockstep(2))
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  KSetAgreementTask task(2);
  std::string why;
  EXPECT_TRUE(task.validate(int_inputs(4), out.decisions, &why)) << why;
}

TEST(EngineSmoke, ForwardSimulationIntoX1) {
  // Section 3 direction: simulate an x-consensus-using algorithm (source
  // ASM(4,2,2), group k-set) in the read/write model ASM(4,1,1) —
  // powers ⌊2/2⌋ = 1 = ⌊1/1⌋.
  SimulatedAlgorithm a = group_kset_algorithm(4, 2, 2);
  Outcome out = Experiment::of(a)
                    .in(ModelSpec{4, 1, 1})
                    .inputs(int_inputs(4))
                    .base_options(lockstep(3))
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  KSetAgreementTask task(2);
  std::string why;
  EXPECT_TRUE(task.validate(int_inputs(4), out.decisions, &why)) << why;
}

TEST(EngineSmoke, BgProperChangesN) {
  // The original BG shape: ASM(5,2,1) simulated by t+1 = 3 simulators.
  SimulatedAlgorithm a = trivial_kset_algorithm(5, 2);
  Outcome out = Experiment::of(a)
                    .in(ModelSpec{3, 2, 1})
                    .inputs(int_inputs(3))
                    .base_options(lockstep(4))
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  KSetAgreementTask task(3);
  std::string why;
  EXPECT_TRUE(task.validate(int_inputs(3), out.decisions, &why)) << why;
}

TEST(EngineSmoke, IllegalSimulationRejected) {
  // Target power 2 > source power 1: must be rejected up front.
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  EXPECT_THROW(make_simulation(a, ModelSpec{5, 2, 1}), ProtocolError);
}

TEST(EngineSmoke, SimulationSurvivesSimulatorCrashes) {
  // ASM(4,1,1) source simulated in ASM(4,3,2): up to 3 simulator crashes
  // are within budget; with 2 crashes all correct simulators must decide.
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  ExecutionOptions o = lockstep(5);
  o.crashes = CrashPlan::fixed({{0, 40}, {2, 60}});
  Outcome out = Experiment::of(a)
                    .in(ModelSpec{4, 3, 2})
                    .inputs(int_inputs(4))
                    .base_options(o)
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  KSetAgreementTask task(2);
  std::string why;
  EXPECT_TRUE(task.validate(int_inputs(4), out.decisions, &why)) << why;
}

}  // namespace
}  // namespace mpcn
