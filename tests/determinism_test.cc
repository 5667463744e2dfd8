// Determinism of the lock-step scheduler across the whole stack: given a
// seed, direct executions and full engine simulations must reproduce the
// same decisions, crash sets, and (for direct runs) step counts. This is
// what makes every other test in the repository replayable.
#include <gtest/gtest.h>

#include "src/core/colored_engine.h"
#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"
#include "src/explore/trace.h"
#include "src/obs/metrics.h"
#include "src/tasks/algorithms.h"

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 2000000) {
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

std::string fingerprint(const Outcome& out) {
  std::string s;
  for (const auto& d : out.decisions) {
    s += d ? d->to_string() : "-";
    s += "|";
  }
  for (bool c : out.crashed) s += c ? 'X' : '.';
  s += "|" + std::to_string(out.timed_out);
  return s;
}

class DirectDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DirectDeterminism, SameSeedSameOutcomeAndSteps) {
  const std::uint64_t seed = GetParam();
  auto run = [&] {
    SimulatedAlgorithm a = trivial_kset_algorithm(5, 2);
    ExecutionOptions o = lockstep(seed);
    o.crashes = CrashPlan::hazard(0.003, 2, seed + 17);
    return Experiment::of(a)
               .direct()
               .inputs(int_inputs(5, 30))
               .base_options(o)
               .run()
               .outcome();
  };
  Outcome a = run();
  Outcome b = run();
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(a.steps, b.steps)
      << "direct runs must replay step-for-step";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectDeterminism,
                         ::testing::Range<std::uint64_t>(1, 11));

class EngineDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDeterminism, SameSeedSameDecisions) {
  const std::uint64_t seed = GetParam();
  auto run = [&] {
    SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
    ExecutionOptions o = lockstep(seed);
    o.crashes = CrashPlan::hazard(0.002, 3, seed * 3 + 5);
    return Experiment::of(a)
               .in(ModelSpec{4, 3, 2})
               .inputs(int_inputs(4, 50))
               .base_options(o)
               .run()
               .outcome();
  };
  Outcome a = run();
  Outcome b = run();
  // Decisions, crash sets and step totals replay exactly (see the
  // determinism engineering notes in DESIGN.md).
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(a.steps, b.steps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminism,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(SeedSensitivity, DifferentSeedsDifferentSchedules) {
  // Not a correctness property — a sanity check that the adversary
  // actually varies: across seeds, step totals should not all coincide.
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  std::set<std::uint64_t> step_totals;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Outcome out = Experiment::of(a)
                      .direct()
                      .inputs(int_inputs(4))
                      .base_options(lockstep(seed))
                      .run()
                      .outcome();
    step_totals.insert(out.steps);
  }
  EXPECT_GT(step_totals.size(), 1u);
}

// ------------------------------------- pins to the threaded runtime
//
// The lock-step runtime used to host every process on an OS thread of its
// own and hand the step token over through one of three wait strategies,
// all of which produced one grant trace per seed. The literals below are
// that runtime's grant-trace digests, step counts and outcomes; the fiber
// runtime must reproduce them exactly. The runs under hazard crashes were
// recorded again when the hazard plan began to draw from splitmix64 of
// its seed instead of the seed itself (its first crash had hit the
// lowest runnable process whenever the plan shared the scheduler's seed).
// The engine runs were recorded again when a decided simulator began to
// let a cancelled thread finish its agreement propose (the stop rule in
// src/core/engine_internal.h), and again when a simulator's local waits
// (its mutexes, its poll for a simulated decision) stopped taking steps.

struct TracePin {
  std::uint64_t seed;
  const char* digest;  // ScheduleTrace::digest() of the grant trace
  std::uint64_t steps;
  const char* outcome;  // decisions, then one crash mark per process
};

// Decisions, then one crash mark per process, of an Outcome or a
// RunRecord.
template <typename Run>
std::string outcome_key(const Run& run) {
  std::string s;
  for (const auto& d : run.decisions) s += (d ? d->to_string() : "-") + "|";
  for (bool c : run.crashed) s += c ? 'X' : '.';
  return s;
}

void expect_pinned_trace(const TracePin& pin, std::vector<Program> programs,
                         std::vector<Value> inputs, ExecutionOptions o) {
  SCOPED_TRACE("seed " + std::to_string(pin.seed));
  Execution e(std::move(programs), std::move(inputs), std::move(o));
  e.controller().enable_grant_trace();
  const Outcome out = e.run();
  ScheduleTrace trace;
  trace.grants = e.controller().grant_trace();
  EXPECT_EQ(trace.digest(), pin.digest);
  EXPECT_EQ(trace.size(), pin.steps);
  EXPECT_EQ(out.steps, pin.steps);
  EXPECT_EQ(outcome_key(out), pin.outcome);
}

TEST(ThreadedRuntimePins, DirectRunsReproduceGrantTraces) {
  const TracePin pins[] = {
      {1, "897ea7d02a3bcb23", 12, "30|30|30|30|30|....."},
      {2, "07d3a97c73049d03", 12, "30|30|30|30|30|....."},
      {3, "d90c2961d533ee81", 11, "30|30|30|30|30|....."},
      {4, "c5cfaf9413e06861", 11, "30|30|30|30|30|....."},
      {5, "d8252ca7d3a775c3", 10, "30|-|30|30|30|.X..."},
      {6, "289f3b1eedd56e83", 10, "30|31|31|31|32|....."},
  };
  for (const TracePin& pin : pins) {
    ExecutionOptions o = lockstep(pin.seed);
    o.crashes = CrashPlan::hazard(0.003, 2, pin.seed + 17);
    expect_pinned_trace(pin, make_direct_programs(trivial_kset_algorithm(5, 2)),
                        int_inputs(5, 30), o);
  }
}

TEST(ThreadedRuntimePins, EngineSimulationsReproduceGrantTraces) {
  // Engine runs fork one child per simulated process and tear them down
  // through ~ChildHandle, crashes included: every controller path.
  const TracePin pins[] = {
      {1, "2942beaefe005e26", 217, "50|50|50|-|...X"},
      {2, "82f4035e417d1557", 194, "-|50|50|50|X..."},
      {3, "47fae85cf21f1e26", 243, "50|50|50|50|...."},
      {4, "58c619244c7d02c5", 204, "50|50|50|50|...."},
      {5, "8527dfce348a81b7", 218, "50|50|50|50|...."},
      {6, "71fed012ecce7994", 221, "50|-|50|50|.X.."},
  };
  for (const TracePin& pin : pins) {
    ExecutionOptions o = lockstep(pin.seed);
    o.crashes = CrashPlan::hazard(0.002, 3, pin.seed * 3 + 5);
    std::vector<Program> programs =
        make_simulation(trivial_kset_algorithm(4, 1), ModelSpec{4, 3, 2});
    expect_pinned_trace(pin, std::move(programs), int_inputs(4, 50), o);
  }
}

// The cell `paper_grid` repeats: the registry's trivial_kset for
// ASM(4,2,1), simulated in ASM(8,5,3) under the hazard crashes of
// `mpcn run --crash-p 0.001`. Every owner of one of its x_safe_agreement
// objects scans the C(7,2) = 21 SET_LIST subsets that contain it. The
// literals were recorded again under the engines' stop rule (a cancelled
// thread finishes its agreement propose), and again once local waits took
// no steps.
TEST(EnginePins, PaperGridCellReproducesGrantTraces) {
  const TracePin pins[] = {
      {1, "0b88a066318b2523", 866, "2|2|2|2|2|2|2|2|........"},
      {2, "1cb789d6d97902d1", 616, "-|1|-|1|1|-|1|1|X.X..X.."},
      {3, "4521c8787294cad1", 846, "4|4|0|4|0|0|4|4|........"},
      {4, "f99d4aec68e14386", 789, "-|3|3|3|3|3|3|3|X......."},
      {5, "bbb1c7ba1367fc74", 808, "0|0|0|0|0|0|0|0|........"},
      {6, "23768e27faddd2b3", 863, "1|1|1|1|1|1|1|1|........"},
  };
  for (const TracePin& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    Experiment e = Experiment::named("trivial_kset", ModelSpec{4, 2, 1});
    e.in(ModelSpec{8, 5, 3})
        .seed(pin.seed)
        .inputs_fn([](const ModelSpec& m) { return int_inputs(m.n); })
        .crashes([](const ModelSpec& m, std::uint64_t seed) {
          return CrashPlan::hazard(0.001, m.t, seed);
        });
    ExperimentCell cell = e.cells().front();
    cell.record_schedule = true;
    const RunRecord rec = run_cell(cell);
    ASSERT_TRUE(rec.error.empty()) << rec.error;
    EXPECT_EQ(rec.schedule_digest, pin.digest);
    EXPECT_EQ(rec.steps, pin.steps);
    EXPECT_EQ(outcome_key(rec), pin.outcome);
    EXPECT_TRUE(rec.valid) << rec.why;
  }
}

// Every fiber of an engine run that does not return from its body ends
// by unwinding SimulationHalted (the run stopped, or its simulator
// cancelled it) or ProcessCrashed (its crash domain crashed), and the
// runtime counts both once per run.
TEST(UnwindCounters, EngineRunWithFixedCrashes) {
  const Counter& halts = metrics_registry().counter("runtime.halt_unwinds");
  const Counter& crashes =
      metrics_registry().counter("runtime.crash_unwinds");
  const std::uint64_t halts_before = halts.value();
  const std::uint64_t crashes_before = crashes.value();
  ExecutionOptions o = lockstep(1);
  // Simulators q0 and q2 crash with their simulated threads running.
  o.crashes = CrashPlan::fixed({{0, 40}, {2, 50}});
  std::vector<Program> programs =
      make_simulation(trivial_kset_algorithm(4, 1), ModelSpec{4, 3, 2});
  const Outcome out =
      run_execution(std::move(programs), int_inputs(4, 50), o);
  ASSERT_EQ(outcome_key(out), "-|50|-|50|X.X.");
  ASSERT_EQ(out.steps, 212u);
  // Each crashed simulator unwinds its own fiber and its four simulated
  // threads; the rest were cancelled or stopped with the run.
  EXPECT_EQ(crashes.value() - crashes_before, 10u);
  EXPECT_EQ(halts.value() - halts_before, 6u);
}

// A recorded ScheduleTrace is a substrate-local artifact that must replay
// byte-identically wherever it was recorded: for both mem backends,
// record -> scripted replay reproduces the identical record, and the
// recorded schedule is the one the threaded runtime recorded.
TEST(TraceReplayDeterminism, ByteIdenticalPerMemAndPinned) {
  const struct {
    MemKind mem;
    const char* digest;
    std::uint64_t steps;
  } pins[] = {{MemKind::kPrimitive, "1f3b665901de90a0", 243},
              {MemKind::kAfek, "007655e4fed61261", 2013}};
  for (const auto& pin : pins) {
    Experiment e = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
    e.direct().seed(5).mem(pin.mem).inputs_fn([](const ModelSpec& m) {
      return int_inputs(m.n);
    });
    ExperimentCell cell = e.cells().front();
    cell.record_schedule = true;
    const RunRecord recorded = run_cell(cell);
    ASSERT_TRUE(recorded.schedule_trace) << to_string(pin.mem);
    EXPECT_EQ(recorded.schedule_digest, pin.digest) << to_string(pin.mem);
    EXPECT_EQ(recorded.steps, pin.steps) << to_string(pin.mem);

    const RunRecord replayed = replay_trace(cell, *recorded.schedule_trace);
    EXPECT_EQ(replayed.to_json(false).dump(), recorded.to_json(false).dump())
        << "mem=" << to_string(pin.mem);
  }
}

class ColoredDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColoredDeterminism, SameSeedSameClaims) {
  const std::uint64_t seed = GetParam();
  auto run = [&] {
    SimulatedAlgorithm a = identity_colored_algorithm(5, 1, 2);
    std::vector<Program> programs =
        make_colored_simulation(a, ModelSpec{4, 1, 2});
    return run_execution(std::move(programs), int_inputs(4),
                         lockstep(seed));
  };
  EXPECT_EQ(fingerprint(run()), fingerprint(run()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoredDeterminism,
                         ::testing::Range<std::uint64_t>(1, 8));

}  // namespace
}  // namespace mpcn
