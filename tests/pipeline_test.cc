// Tests: the Figure 7 pipeline through Experiment — direct vs simulated
// execution consistency and the equivalence chain run hop by hop.
#include <gtest/gtest.h>

#include "src/experiment/experiment.h"
#include "src/tasks/algorithms.h"
#include "src/tasks/task.h"

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 900000) {
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

TEST(Pipeline, DirectMatchesModelSemantics) {
  SimulatedAlgorithm a = group_kset_algorithm(4, 2, 2);
  Outcome out = Experiment::of(a)
                    .direct()
                    .inputs(int_inputs(4, 10))
                    .base_options(lockstep(1))
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  KSetAgreementTask task(2);
  std::string why;
  EXPECT_TRUE(task.validate(int_inputs(4, 10), out.decisions, &why)) << why;
}

// The Figure 7 demonstration: one algorithm, every model of the chain,
// all runs must solve the task.
class ChainWalk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainWalk, TrivialKsetAcrossPower1Chain) {
  // ASM(4,1,1) ≃ ASM(5,3,2): chain passes ASM(4,1,1), ASM(2,1,1),
  // ASM(5,1,1), ASM(5,3,2).
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  const std::vector<Value> pool = int_inputs(6, 40);
  const Report hops = Experiment::of(a)
                          .through_chain_to(ModelSpec{5, 3, 2})
                          .input_pool(pool)
                          .base_options(lockstep(GetParam()))
                          .run_all();
  ASSERT_GE(hops.records.size(), 3u);
  for (const RunRecord& hop : hops.records) {
    SCOPED_TRACE(hop.target.to_string());
    ASSERT_EQ(hop.error, "");
    ASSERT_FALSE(hop.timed_out);
    EXPECT_TRUE(hop.outcome().all_correct_decided());
    // Validate against the inputs that hop actually used.
    std::vector<Value> inputs;
    for (int i = 0; i < hop.target.n; ++i) {
      inputs.push_back(pool[static_cast<std::size_t>(i) % pool.size()]);
    }
    KSetAgreementTask task(2);
    std::string why;
    EXPECT_TRUE(task.validate(inputs, hop.decisions, &why)) << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainWalk,
                         ::testing::Range<std::uint64_t>(1, 5));

TEST(ChainWalk, XConsSourceAcrossChain) {
  // Source uses x-consensus objects: ASM(4,2,2) ≃ ASM(6,1,1) (power 1).
  SimulatedAlgorithm a = group_kset_algorithm(4, 2, 2);
  const std::vector<Value> pool = int_inputs(8, 70);
  const Report hops = Experiment::of(a)
                          .through_chain_to(ModelSpec{6, 1, 1})
                          .input_pool(pool)
                          .base_options(lockstep(7))
                          .run_all();
  for (const RunRecord& hop : hops.records) {
    SCOPED_TRACE(hop.target.to_string());
    ASSERT_EQ(hop.error, "");
    ASSERT_FALSE(hop.timed_out);
    EXPECT_TRUE(hop.outcome().all_correct_decided());
    std::vector<Value> inputs;
    for (int i = 0; i < hop.target.n; ++i) {
      inputs.push_back(pool[static_cast<std::size_t>(i) % pool.size()]);
    }
    KSetAgreementTask task(2);
    std::string why;
    EXPECT_TRUE(task.validate(inputs, hop.decisions, &why)) << why;
  }
}

TEST(ChainWalk, WithPerHopCrashes) {
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  const std::vector<Value> pool = int_inputs(6, 90);
  const Report hops =
      Experiment::of(a)
          .through_chain_to(ModelSpec{5, 3, 2})
          .input_pool(pool)
          .base_options(lockstep(11))
          .crashes([](const ModelSpec& m, std::uint64_t) {
            // Crash up to the hop's budget with a per-hop seed.
            return CrashPlan::hazard(
                0.001, m.t, static_cast<std::uint64_t>(m.n * 100 + m.t));
          })
          .run_all();
  for (const RunRecord& hop : hops.records) {
    SCOPED_TRACE(hop.target.to_string());
    ASSERT_EQ(hop.error, "");
    ASSERT_FALSE(hop.timed_out);
    EXPECT_TRUE(hop.outcome().all_correct_decided());
  }
}

// Equivalence as observed behaviour: for the same task, direct execution
// in M1 and simulated execution in every equivalent M2 both solve it.
TEST(Equivalence, EmpiricalAcrossOneClass) {
  // Class of power 1 with n = 4: (t', x) in {(1,1),(2,2),(3,2),(3,3)}.
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  const std::vector<Value> inputs = int_inputs(4, 30);
  KSetAgreementTask task(2);
  for (const ModelSpec& m :
       {ModelSpec{4, 1, 1}, ModelSpec{4, 2, 2}, ModelSpec{4, 3, 2},
        ModelSpec{4, 3, 3}}) {
    SCOPED_TRACE(m.to_string());
    ASSERT_TRUE(equivalent(m, a.model));
    Experiment e = Experiment::of(a);
    if (m == a.model) {
      e.direct();
    } else {
      e.in(m);
    }
    Outcome out = e.inputs(inputs).base_options(lockstep(13)).run().outcome();
    ASSERT_FALSE(out.timed_out);
    EXPECT_TRUE(out.all_correct_decided());
    std::string why;
    EXPECT_TRUE(task.validate(inputs, out.decisions, &why)) << why;
  }
}

}  // namespace
}  // namespace mpcn
