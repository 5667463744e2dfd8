// The theorem-level test suites: the generalized BG engine run across
// (source, target) model grids, with seeded adversarial schedules and
// crash plans up to the target's full budget. These are the executable
// versions of Theorem 1 (Section 3.4) and Theorem 3 (Section 4.4).
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/bg_engine.h"
#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"
#include "src/tasks/algorithms.h"
#include "src/tasks/task.h"

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 6000000) {
  ExecutionOptions o;
  o.seed = seed;
  o.step_limit = limit;
  return o;
}

std::vector<Value> int_inputs(int n, int base = 100) {
  std::vector<Value> v;
  for (int i = 0; i < n; ++i) v.push_back(Value(base + i));
  return v;
}

void expect_solves_kset(const Outcome& out, int k,
                        const std::vector<Value>& inputs,
                        const std::string& label) {
  ASSERT_FALSE(out.timed_out) << label << ": run timed out";
  EXPECT_TRUE(out.all_correct_decided())
      << label << ": a correct simulator failed to decide";
  KSetAgreementTask task(k);
  std::string why;
  EXPECT_TRUE(task.validate(inputs, out.decisions, &why))
      << label << ": " << why;
}

// =========================================================================
// Section 4 direction — ASM(n,t,1) source simulated in ASM(n,t',x).
// Source: trivial (t+1)-set agreement. Every (t', x) with ⌊t'/x⌋ <= t
// must solve (t+1)-set agreement, even with t' simulator crashes.

struct BackwardCase {
  int n_src, t_src;      // source ASM(n, t, 1)
  int n_tgt, t_tgt, x_tgt;  // target ASM(n', t', x')
};

class BackwardSimulation
    : public ::testing::TestWithParam<std::tuple<BackwardCase, std::uint64_t>> {
};

TEST_P(BackwardSimulation, SolvesSourceTask) {
  const BackwardCase c = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  SimulatedAlgorithm a = trivial_kset_algorithm(c.n_src, c.t_src);
  const ModelSpec target{c.n_tgt, c.t_tgt, c.x_tgt};
  ASSERT_LE(target.power(), a.model.power()) << "bad test case";
  ExecutionOptions o = lockstep(seed);
  // Crash up to the target's full budget with a seeded hazard.
  o.crashes = CrashPlan::hazard(0.0015, c.t_tgt, seed * 31 + 7);
  const std::vector<Value> inputs = int_inputs(c.n_tgt);
  Outcome out = Experiment::of(a)
                    .in(target)
                    .inputs(inputs)
                    .base_options(o)
                    .run()
                    .outcome();
  expect_solves_kset(out, c.t_src + 1, inputs,
                     a.model.to_string() + " in " + target.to_string());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BackwardSimulation,
    ::testing::Combine(
        ::testing::Values(
            // ASM(4,1,1) in targets of power <= 1
            BackwardCase{4, 1, 4, 1, 1}, BackwardCase{4, 1, 4, 2, 2},
            BackwardCase{4, 1, 4, 3, 2}, BackwardCase{4, 1, 4, 3, 3},
            BackwardCase{4, 1, 5, 3, 2}, BackwardCase{4, 1, 6, 5, 3},
            // ASM(5,2,1) in targets of power <= 2
            BackwardCase{5, 2, 5, 2, 1}, BackwardCase{5, 2, 5, 4, 2},
            BackwardCase{5, 2, 6, 5, 2}, BackwardCase{5, 2, 4, 3, 2},
            // wait-free-strong target: ASM(4,3,3), power 1
            BackwardCase{4, 1, 4, 3, 3},
            // x' > t' regime (power 0 target) from a power-0 source
            BackwardCase{3, 0, 4, 1, 2}),
        ::testing::Range<std::uint64_t>(1, 6)));

// =========================================================================
// Section 3 direction — ASM(n,t',x) source simulated in ASM(n,t,1).
// Source: group k-set (uses x-consensus objects). Target: read/write.

struct ForwardCase {
  int n_src, t_src, x_src;
  int n_tgt, t_tgt;
};

class ForwardSimulation
    : public ::testing::TestWithParam<std::tuple<ForwardCase, std::uint64_t>> {
};

TEST_P(ForwardSimulation, SolvesSourceTask) {
  const ForwardCase c = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  SimulatedAlgorithm a = group_kset_algorithm(c.n_src, c.t_src, c.x_src);
  const ModelSpec target{c.n_tgt, c.t_tgt, 1};
  ASSERT_LE(target.power(), a.model.power()) << "bad test case";
  ExecutionOptions o = lockstep(seed);
  o.crashes = CrashPlan::hazard(0.0015, c.t_tgt, seed * 17 + 3);
  const std::vector<Value> inputs = int_inputs(c.n_tgt);
  const int k = floor_div(c.t_src, c.x_src) + 1;
  Outcome out = Experiment::of(a)
                    .in(target)
                    .inputs(inputs)
                    .base_options(o)
                    .run()
                    .outcome();
  expect_solves_kset(out, k, inputs,
                     a.model.to_string() + " in " + target.to_string());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ForwardSimulation,
    ::testing::Combine(
        ::testing::Values(
            // ASM(4,2,2) (power 1) in ASM(4,1,1) / ASM(5,1,1)
            ForwardCase{4, 2, 2, 4, 1}, ForwardCase{4, 2, 2, 5, 1},
            // ASM(6,3,2) (power 1) in ASM(6,1,1)
            ForwardCase{6, 3, 2, 6, 1},
            // ASM(6,2,3) (power 0) in failure-free read/write
            ForwardCase{6, 2, 3, 6, 0},
            // consensus via x-consensus: ASM(4,1,2) (power 0) in ASM(4,0,1)
            ForwardCase{4, 1, 2, 4, 0},
            // BG-proper n change: ASM(5,2,2) (power 1) in ASM(2,1,1)
            ForwardCase{5, 2, 2, 2, 1}),
        ::testing::Range<std::uint64_t>(1, 6)));

// =========================================================================
// General case — x > 1 on BOTH sides (Section 5).

struct GeneralCase {
  int n_src, t_src, x_src;
  int n_tgt, t_tgt, x_tgt;
};

class GeneralSimulation
    : public ::testing::TestWithParam<std::tuple<GeneralCase, std::uint64_t>> {
};

TEST_P(GeneralSimulation, SolvesSourceTask) {
  const GeneralCase c = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  SimulatedAlgorithm a = group_kset_algorithm(c.n_src, c.t_src, c.x_src);
  const ModelSpec target{c.n_tgt, c.t_tgt, c.x_tgt};
  ASSERT_LE(target.power(), a.model.power()) << "bad test case";
  ExecutionOptions o = lockstep(seed);
  o.crashes = CrashPlan::hazard(0.001, c.t_tgt, seed * 41 + 11);
  const std::vector<Value> inputs = int_inputs(c.n_tgt);
  const int k = floor_div(c.t_src, c.x_src) + 1;
  Outcome out = Experiment::of(a)
                    .in(target)
                    .inputs(inputs)
                    .base_options(o)
                    .run()
                    .outcome();
  expect_solves_kset(out, k, inputs,
                     a.model.to_string() + " in " + target.to_string());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeneralSimulation,
    ::testing::Combine(
        ::testing::Values(
            // power-1 source ASM(4,2,2) into power-1 / power-0 targets
            GeneralCase{4, 2, 2, 4, 3, 2}, GeneralCase{4, 2, 2, 5, 2, 2},
            GeneralCase{4, 2, 2, 4, 1, 2},
            // power-2 source ASM(6,4,2) into ASM(5,4,2) (power 2)
            GeneralCase{6, 4, 2, 5, 4, 2},
            // cross-x: ASM(6,3,3) (power 1) into ASM(4,2,2) (power 1)
            GeneralCase{6, 3, 3, 4, 2, 2}),
        ::testing::Range<std::uint64_t>(1, 5)));

// =========================================================================
// Structural / negative cases.

TEST(SimulationLegality, PowerConditionIsTheGate) {
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);  // power 1
  // power 2 target: rejected.
  EXPECT_THROW(make_simulation(a, ModelSpec{6, 2, 1}), ProtocolError);
  EXPECT_THROW(make_simulation(a, ModelSpec{6, 5, 2}), ProtocolError);
  // power 1 and 0 targets: accepted.
  EXPECT_NO_THROW(make_simulation(a, ModelSpec{6, 1, 1}));
  EXPECT_NO_THROW(make_simulation(a, ModelSpec{6, 3, 2}));
  EXPECT_NO_THROW(make_simulation(a, ModelSpec{6, 0, 1}));
  // Legality check can be disabled for what-breaks experiments.
  SimulationOptions loose;
  loose.check_legality = false;
  EXPECT_NO_THROW(make_simulation(a, ModelSpec{6, 2, 1}, loose));
}

TEST(SimulationStructure, PlanHasOneProgramPerSimulator) {
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  EXPECT_EQ(make_simulation(a, ModelSpec{7, 3, 2}).size(), 7u);
}

// All simulators must adopt decisions consistent with ONE simulated run:
// with consensus as the source task, every simulator decides the same
// value (Lemmas 3-5/9-10 made observable).
class SimulatedConsensusAgreement
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatedConsensusAgreement, AllSimulatorsAgree) {
  SimulatedAlgorithm a = single_object_consensus_algorithm(4, 1, 4);
  // power 0 source; target ASM(5,1,2) has power 0.
  const ModelSpec target{5, 1, 2};
  ExecutionOptions o = lockstep(GetParam());
  o.crashes = CrashPlan::hazard(0.002, 1, GetParam() + 99);
  const std::vector<Value> inputs = int_inputs(5, 200);
  Outcome out = Experiment::of(a)
                    .in(target)
                    .inputs(inputs)
                    .base_options(o)
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  EXPECT_TRUE(out.all_correct_decided());
  EXPECT_EQ(out.distinct_decisions().size(), 1u)
      << "simulated consensus must yield one value across simulators";
  // Validity: the value is some simulator's input.
  const Value v = *out.distinct_decisions().begin();
  EXPECT_GE(v.as_int(), 200);
  EXPECT_LT(v.as_int(), 205);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatedConsensusAgreement,
                         ::testing::Range<std::uint64_t>(1, 13));

// Liveness under the maximum legal crash budget, placed adversarially at
// fixed steps (not hazard): t' crashes early in the run.
TEST(SimulationLiveness, FullCrashBudgetEarlyCrashes) {
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  const ModelSpec target{4, 3, 2};  // power 1, budget 3
  ExecutionOptions o = lockstep(5, 1'500'000);
  o.crashes = CrashPlan::fixed({{0, 15}, {1, 25}, {3, 35}});
  const std::vector<Value> inputs = int_inputs(4);
  Outcome out = Experiment::of(a)
                    .in(target)
                    .inputs(inputs)
                    .base_options(o)
                    .run()
                    .outcome();
  ASSERT_FALSE(out.timed_out);
  // Only q2 is correct; it must decide.
  ASSERT_TRUE(out.decisions[2].has_value());
  KSetAgreementTask task(2);
  std::string why;
  EXPECT_TRUE(task.validate(inputs, out.decisions, &why)) << why;
}

// Regression for the Figure 4 mutex2 refinement (see DESIGN.md erratum):
// a simulator crash that poisons ONE simulated x-consensus object must
// not prevent the resolution of OTHER objects. Source: two independent
// 2-ported objects (group k-set with two groups); one early crash; the
// run must still decide everywhere. With a single shared mutex2 this
// livelocks (the thread stuck on the poisoned object's decide holds the
// mutex at every simulator).
class Mutex2PerObject : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Mutex2PerObject, CrashedObjectDoesNotBlockOthers) {
  SimulatedAlgorithm a = group_kset_algorithm(6, 3, 2);  // 3 groups, k = 2
  const ModelSpec target{6, 1, 1};
  ExecutionOptions o = lockstep(GetParam());
  // One crash, placed early so it can land inside an XAG propose.
  o.crashes = CrashPlan::fixed({{0, 10 + static_cast<std::uint64_t>(
                                          GetParam() % 13)}});
  const std::vector<Value> inputs = int_inputs(6);
  Outcome out = Experiment::of(a)
                    .in(target)
                    .inputs(inputs)
                    .base_options(o)
                    .run()
                    .outcome();
  expect_solves_kset(out, 2, inputs, "mutex2 regression");
}

INSTANTIATE_TEST_SUITE_P(Seeds, Mutex2PerObject,
                         ::testing::Range<std::uint64_t>(1, 16));

// =========================================================================
// The blocking lemmas' converse, via the white-box propose-trap adversary.
//
// Lemma 7 says <= ⌊t'/x⌋ simulated processes block; these tests realize
// the adversary that achieves the bound exactly and check the blocking
// *happens* (the impossibility side of the main theorem, deterministic).

class ProposeTrapBlocksX1 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProposeTrapBlocksX1, OneMidProposeCrashBlocksOneProcess) {
  // Target x = 1: one crash between the level-1 write and the stabilize
  // write poisons INPUT/0; the 0-resilient source then never finishes.
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 0);
  ExecutionOptions o = lockstep(GetParam(), 60'000);
  o.crashes = CrashPlan::propose_trap({"INPUT/0"}, 1, 2);
  Outcome out = Experiment::of(a)
                    .in(ModelSpec{4, 1, 1})
                    .inputs(int_inputs(4))
                    .base_options(o)
                    .check_legality(false)  // power 1 target, power 0 source
                    .run()
                    .outcome();
  EXPECT_TRUE(out.timed_out) << "p0 must block, stalling the whole task";
  EXPECT_EQ(out.decided_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProposeTrapBlocksX1,
                         ::testing::Range<std::uint64_t>(1, 9));

class OwnerTrapBlocksX2 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OwnerTrapBlocksX2, XOwnerCrashesPoisonOneAgreement) {
  // Target x = 2: crash both elected owners of INPUT/0 right after their
  // T&S wins — the exact Theorem 2 scenario. Blocks p0 deterministically.
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 0);
  ExecutionOptions o = lockstep(GetParam(), 60'000);
  o.crashes = CrashPlan::propose_trap({"INPUT/0"}, 2, 1,
                                      CrashPlan::TrapPoint::kOwnerElected);
  Outcome out = Experiment::of(a)
                    .in(ModelSpec{4, 2, 2})
                    .inputs(int_inputs(4))
                    .base_options(o)
                    .check_legality(false)
                    .run()
                    .outcome();
  EXPECT_TRUE(out.timed_out);
  EXPECT_EQ(out.decided_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OwnerTrapBlocksX2,
                         ::testing::Range<std::uint64_t>(1, 9));

// The legal side under the same adversary: if the source tolerates the
// blocked process (t1 = 1), the trap must NOT prevent termination.
class TrapWithinResilience : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TrapWithinResilience, ToleratedBlockStillSolves) {
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);  // tolerates 1
  ExecutionOptions o = lockstep(GetParam());
  o.crashes = CrashPlan::propose_trap({"INPUT/0"}, 2, 1,
                                      CrashPlan::TrapPoint::kOwnerElected);
  const std::vector<Value> inputs = int_inputs(4);
  Outcome out = Experiment::of(a)
                    .in(ModelSpec{4, 2, 2})
                    .inputs(inputs)
                    .base_options(o)
                    .run()
                    .outcome();
  expect_solves_kset(out, 2, inputs, "trap within resilience");
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrapWithinResilience,
                         ::testing::Range<std::uint64_t>(1, 9));

// x-1 owner crashes must NOT poison an x-safe agreement (Theorem 2's
// termination property at the boundary).
class OwnerTrapXMinus1 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OwnerTrapXMinus1, OneOwnerCrashToleratedByX2Agreement) {
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 0);  // tolerates 0
  ExecutionOptions o = lockstep(GetParam());
  // Only ONE owner of INPUT/0 crashes: the object must still decide and
  // the 0-resilient source must still terminate everywhere.
  o.crashes = CrashPlan::propose_trap({"INPUT/0"}, 1, 1,
                                      CrashPlan::TrapPoint::kOwnerElected);
  const std::vector<Value> inputs = int_inputs(4);
  Outcome out = Experiment::of(a)
                    .in(ModelSpec{4, 2, 2})
                    .inputs(inputs)
                    .base_options(o)
                    .check_legality(false)
                    .run()
                    .outcome();
  expect_solves_kset(out, 1, inputs, "x-1 owner crashes tolerated");
}

INSTANTIATE_TEST_SUITE_P(Seeds, OwnerTrapXMinus1,
                         ::testing::Range<std::uint64_t>(1, 9));

// The engine on the Afek MEM substrate (the `mem` axis ablation): the
// backward simulation must stay correct when every MEM write/snapshot is
// the wait-free register construction instead of the one-step primitive.
TEST(EngineOnAfekMem, BackwardSimulationStillCorrect) {
  SimulatedAlgorithm a = trivial_kset_algorithm(3, 1);
  const std::vector<Value> inputs = int_inputs(3, 40);
  Outcome out = Experiment::of(a)
                    .in(ModelSpec{3, 1, 1})
                    .inputs(inputs)
                    .base_options(lockstep(3, 3'000'000))
                    .mem(MemKind::kAfek)
                    .run()
                    .outcome();
  expect_solves_kset(out, 2, inputs, "engine on afek mem");
}

// =========================================================================
// Termination under the engines' stop rule (src/core/engine_internal.h):
// a simulator that decides cancels its simulated threads, and a thread
// inside an agreement propose completes it first. Cancelled mid-propose,
// it would leave the object in its unsafe window as a crash does, so a
// decided simulator would block the others and runs that must terminate
// would time out. Each cell is built as `mpcn run` and `mpcn explore`
// build it (process index as input). The colorless cases time out when
// threads are cancelled mid-propose; the colored ones guard the colored
// engine's share of the rule. The PCT cases guard the engines' local
// waits, which take no steps (src/runtime/step_controller.h).

Experiment termination_experiment(const char* scenario, ModelSpec source,
                                  ModelSpec target, bool colored = false) {
  Experiment e = Experiment::named(scenario, source);
  if (colored) {
    e.colored_in(target);
  } else {
    e.in(target);
  }
  e.inputs_fn([](const ModelSpec& m) { return int_inputs(m.n, 0); });
  return e;
}

// The hazard crashes of `mpcn run --crash-p p`.
Experiment& with_hazard(Experiment& e, double p) {
  return e.crashes([p](const ModelSpec& m, std::uint64_t seed) {
    return CrashPlan::hazard(p, m.t, seed);
  });
}

// "seed N: <why>" for every cell of `r` that is not ok.
std::string failed_cells(const Report& r) {
  std::ostringstream out;
  for (const RunRecord& rec : r.records) {
    if (rec.ok()) continue;
    out << "seed " << rec.seed << ": "
        << (rec.timed_out ? "timed out after " + std::to_string(rec.steps) +
                                " steps"
                          : rec.error.empty() ? rec.why : rec.error)
        << "\n";
  }
  return out.str();
}

// `mpcn explore trivial_kset --source 2,1,1 --in 3,1,1 --mode simulated
// --policy random --budget 2000 --steps 20000`, crash-free and with
// `--crash-budget 1 --crash-rate 0.01` (t' = 1). Cancelled mid-propose,
// the first search times out at schedule 59 and the second at 31.
TEST(Termination, RandomSearchOfTheSmallestCellIsClean) {
  Experiment e = termination_experiment("trivial_kset", ModelSpec{2, 1, 1},
                                        ModelSpec{3, 1, 1});
  e.seed(1).step_limit(20'000);
  const ExperimentCell cell = e.cells().front();
  ExploreOptions o;
  o.policy = ExplorePolicy::kSeededRandom;
  o.seed = 1;
  o.budget = 2000;
  o.crash_rate = 0.01;
  o.shrink_violations = false;
  for (const int crash_budget : {0, 1}) {
    o.crash_budget = crash_budget;
    const ExploreResult r = explore(cell, o);
    EXPECT_EQ(r.schedules, 2000) << "crash budget " << crash_budget;
    for (const ExploreViolation& v : r.violations) {
      ADD_FAILURE() << "crash budget " << crash_budget << ", schedule "
                    << v.schedule_index << ": " << v.why;
    }
  }
}

// The same cell over 2,000 seeds (20 time out when threads are cancelled
// mid-propose).
TEST(Termination, SeedGridOfTheSmallestCellIsAllOk) {
  Experiment e = termination_experiment("trivial_kset", ModelSpec{2, 1, 1},
                                        ModelSpec{3, 1, 1});
  e.seeds(1, 2000).step_limit(20'000);
  const Report r = e.run_all();
  EXPECT_EQ(r.ok_count(), 2000) << failed_cells(r);
}

// The smallest cell's PCT schedule at PCT seed 1, depth 4 and horizon 120,
// the case of `PctPolicy.PinnedDigestsForCurrentSeeds` that ran into its
// 20,000-step limit while a simulator's mutex waits and decision polls
// were steps: nearly all of them were mutex spins. It ends now that those
// waits take none.
TEST(Termination, PctScheduleOfTheSmallestCellEnds) {
  Experiment e = termination_experiment("trivial_kset", ModelSpec{2, 1, 1},
                                        ModelSpec{3, 1, 1});
  e.seed(1).step_limit(20'000);
  ExperimentCell cell = e.cells().front();
  cell.schedule.kind = SchedulePolicyKind::kPct;
  cell.schedule.seed = 1;
  cell.schedule.pct_depth = 4;
  cell.schedule.pct_horizon = 120;
  const RunRecord rec = run_cell(cell);
  EXPECT_TRUE(rec.ok()) << (rec.timed_out ? "timed out after " +
                                                std::to_string(rec.steps) +
                                                " steps"
                                          : rec.why + rec.error);
}

// `mpcn explore group_kset --in 4,2,2 --mode simulated --policy pct
// --budget 30`: a PCT search of a simulation in its own model. While the
// local waits were steps, PCT granted a waiting simulator over the
// threads it waited for, and the 9th schedule ran into the
// 1,000,000-step limit.
TEST(Termination, PctSearchOfASimulationInItsOwnModelIsClean) {
  Experiment e = termination_experiment("group_kset", ModelSpec{4, 2, 2},
                                        ModelSpec{4, 2, 2});
  const ExperimentCell cell = e.cells().front();
  ExploreOptions o;
  o.policy = ExplorePolicy::kPct;
  o.seed = 1;
  o.budget = 30;
  o.shrink_violations = false;
  const ExploreResult r = explore(cell, o);
  EXPECT_EQ(r.schedules, 30);
  for (const ExploreViolation& v : r.violations) {
    ADD_FAILURE() << "schedule " << v.schedule_index << ": " << v.why;
  }
}

// `group_kset` 4,2,2 -> 4,1,1 over 512 seeds under hazard crashes at
// p = 0.001 (seed 466 runs to the 1,000,000-step limit when threads are
// cancelled mid-propose).
TEST(Termination, GroupKsetGridUnderHazardCrashesIsAllOk) {
  Experiment e = termination_experiment("group_kset", ModelSpec{4, 2, 2},
                                        ModelSpec{4, 1, 1});
  with_hazard(e, 0.001).seeds(1, 512);
  const Report r = e.run_all();
  EXPECT_EQ(r.ok_count(), 512) << failed_cells(r);
}

// The colored engine's grid: `snapshot_renaming` 5,1,1 -> 4,1,2 over 512
// seeds under hazard crashes at p = 0.001.
TEST(Termination, ColoredGridUnderHazardCrashesIsAllOk) {
  Experiment e = termination_experiment(
      "snapshot_renaming", ModelSpec{5, 1, 1}, ModelSpec{4, 1, 2},
      /*colored=*/true);
  with_hazard(e, 0.001).seeds(1, 512);
  const Report r = e.run_all();
  EXPECT_EQ(r.ok_count(), 512) << failed_cells(r);
}

// A wider colored cell, crash-free, at `--steps 200000`. A colored engine
// that cancels its threads mid-propose when it wins T&S[j] (neither a
// pause before the claim nor the stop rule) times out on seeds 351 and
// 407 here.
TEST(Termination, WiderColoredGridIsAllOk) {
  Experiment e = termination_experiment(
      "snapshot_renaming", ModelSpec{6, 2, 1}, ModelSpec{5, 2, 2},
      /*colored=*/true);
  e.seeds(1, 512).step_limit(200'000);
  const Report r = e.run_all();
  EXPECT_EQ(r.ok_count(), 512) << failed_cells(r);
}

}  // namespace
}  // namespace mpcn
