// Tests: the (schedule x crash) product search — the explored crash
// plan, crash-aware traces, the product-enumerating DFS, crash-aware
// shrinking, and the cross-process byte-identity of crash searches.
//
// The exhibit is safe_agreement_window (src/tasks/algorithms.h): clean
// under EVERY crash-free schedule, livelocked exactly when a crash
// strands a claim mid-window — so a violation is reachable only through
// the product search, never through schedule-only search at the same
// budget. That separation is the tentpole contract.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "src/common/errors.h"
#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"
#include "src/explore/trace.h"
#include "src/obs/metrics.h"
#include "src/tasks/algorithms.h"

namespace mpcn {
namespace {

std::vector<Value> index_inputs(const ModelSpec& m) {
  std::vector<Value> in;
  for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
  return in;
}

// The exhibit cell: 2 processes, crash budget 1 in the model, tight step
// limit so a stranded claim times out quickly.
ExperimentCell exhibit_cell(std::uint64_t seed = 1) {
  Experiment e =
      Experiment::named("safe_agreement_window", ModelSpec{2, 1, 1});
  e.direct().seed(seed).inputs_fn(index_inputs).step_limit(400);
  return e.cells().front();
}

ExploreOptions dfs_options(int crash_budget) {
  ExploreOptions o;
  o.policy = ExplorePolicy::kBoundedDfs;
  o.dfs_preemption_bound = 0;
  o.budget = 400;
  o.crash_budget = crash_budget;
  return o;
}

// ------------------------------------------------- the tentpole pin

TEST(CrashProduct, ScheduleOnlyDfsExhaustsClean) {
  // Preemption bound 0 enumerates every run-to-completion ordering; all
  // of them terminate and decide committed values.
  const ExploreResult r = explore(exhibit_cell(), dfs_options(0));
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.found());
  EXPECT_FALSE(r.crash_found());
}

TEST(CrashProduct, ProductDfsFindsTheCrashWindow) {
  // Same cell, same preemption bound, same budget — plus crash budget 1:
  // the DFS places a crash between claim and commit and the stranded
  // peer spins to the step limit.
  const ExploreResult r = explore(exhibit_cell(), dfs_options(1));
  ASSERT_TRUE(r.found());
  EXPECT_TRUE(r.crash_found());
  EXPECT_TRUE(r.crash_only());
  const ExploreViolation& v = r.violations.front();
  EXPECT_TRUE(v.crashed);
  EXPECT_FALSE(v.trace.crashes.empty());
  EXPECT_TRUE(v.record.timed_out);
  // The effective plan and the realized crash rode into the record.
  EXPECT_TRUE(v.record.crash_plan.is_explored());
  EXPECT_EQ(v.record.crash_points.size(), 1u);
  // Crash-aware shrinking kept the crash (require_crash) and verified.
  EXPECT_TRUE(v.shrunk_verified);
  EXPECT_FALSE(v.shrunk.crashes.empty());
  EXPECT_LE(v.shrunk.size(), v.trace.size());
}

TEST(CrashProduct, CrashBudgetAboveTheModelsTIsRejected) {
  // The exhibit runs in ASM(2,1,1): a second crash leaves the model, and
  // a run outside it owes no one termination.
  EXPECT_THROW(explore(exhibit_cell(), dfs_options(2)), ProtocolError);
  ExploreOptions random = dfs_options(2);
  random.policy = ExplorePolicy::kSeededRandom;
  EXPECT_THROW(explore(exhibit_cell(), random), ProtocolError);
  // Budget t = 1 is in the model and still finds the window.
  EXPECT_TRUE(explore(exhibit_cell(), dfs_options(1)).crash_found());
}

TEST(CrashProduct, RandomProductSearchFindsItToo) {
  ExploreOptions o;
  o.policy = ExplorePolicy::kSeededRandom;
  o.budget = 200;
  o.crash_budget = 1;
  o.crash_rate = 0.2;
  const ExploreResult r = explore(exhibit_cell(), o);
  ASSERT_TRUE(r.found());
  EXPECT_TRUE(r.crash_only());
}

TEST(CrashProduct, ScheduleOnlyRandomStaysCleanAtSameBudget) {
  // `mpcn explore --seed S` runs the cell and the search at S.
  for (std::uint64_t seed : {1, 7}) {
    ExploreOptions o;
    o.policy = ExplorePolicy::kSeededRandom;
    o.seed = seed;
    o.budget = 200;
    EXPECT_FALSE(explore(exhibit_cell(seed), o).found()) << "seed " << seed;
  }
}

// ------------------------------------------------- replay determinism

TEST(CrashProduct, CrashingTraceReplaysByteIdenticallyPerMem) {
  // The same contract determinism_test pins for crash-free traces,
  // extended to crashing ones: on both mem backends the product DFS finds
  // a crash window, and replaying the recorded trace reproduces the
  // violation record byte for byte (timing excluded). The found trace,
  // its crash placement and its shrunk form are the ones the threaded
  // lock-step runtime found under all three of its wait strategies.
  const struct {
    MemKind mem;
    int schedule_index;
    const char* digest;
    std::uint64_t crash_mark;
    std::uint64_t crash_step;  // pid 0's own-step at the crash
    const char* shrunk_digest;
  } pins[] = {
      {MemKind::kPrimitive, 7, "c0b4aef2cda7b6d6", 3, 4, "d247e44b7c621496"},
      {MemKind::kAfek, 33, "1b1d27467f929f02", 23, 24, "3282b2f1af700207"},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(to_string(pin.mem));
    ExperimentCell cell = exhibit_cell();
    cell.mem = pin.mem;
    const ExploreResult r = explore(cell, dfs_options(1));
    ASSERT_TRUE(r.found());
    const ExploreViolation& v = r.violations.front();
    EXPECT_EQ(v.schedule_index, pin.schedule_index);
    EXPECT_EQ(v.trace.digest(), pin.digest);
    EXPECT_EQ(v.trace.size(), 400u);
    EXPECT_EQ(v.trace.crashes, std::vector<std::uint64_t>{pin.crash_mark});
    ASSERT_EQ(v.record.crash_points.size(), 1u);
    EXPECT_EQ(v.record.crash_points[0].pid, 0);
    EXPECT_EQ(v.record.crash_points[0].at_step, pin.crash_step);
    EXPECT_EQ(v.shrunk.digest(), pin.shrunk_digest);

    const RunRecord rec = replay_trace(cell, v.trace);
    ASSERT_TRUE(rec.schedule_trace);
    EXPECT_EQ(rec.schedule_trace->grants, v.trace.grants);
    EXPECT_EQ(rec.schedule_trace->crashes, v.trace.crashes);
    EXPECT_FALSE(rec.ok());
    // The search stamps its attempt index into cell_index; a
    // standalone replay keeps the cell's own. Outcome bytes match.
    RunRecord expected = v.record;
    expected.cell_index = rec.cell_index;
    EXPECT_EQ(rec.to_json(false).dump(), expected.to_json(false).dump());
  }
}

TEST(CrashProduct, ReplayAutoAttachesExploredPlan) {
  // A trace carrying crash marks replays them even against a cell with
  // no crash plan of its own.
  const ExploreResult r = explore(exhibit_cell(), dfs_options(1));
  ASSERT_TRUE(r.found());
  ExperimentCell cell = exhibit_cell();
  ASSERT_TRUE(cell.options.crashes.is_none());
  const RunRecord rec = replay_trace(cell, r.violations.front().trace);
  EXPECT_FALSE(rec.ok());
  EXPECT_TRUE(rec.crash_plan.is_explored());
  EXPECT_EQ(rec.crash_points.size(), 1u);
}

TEST(CrashProduct, ShrunkTraceStillCrashesOnReplay) {
  const ExploreResult r = explore(exhibit_cell(), dfs_options(1));
  ASSERT_TRUE(r.found());
  const ExploreViolation& v = r.violations.front();
  ASSERT_TRUE(v.shrunk_verified);
  const RunRecord rec = replay_trace(exhibit_cell(), v.shrunk);
  EXPECT_FALSE(rec.ok());
  EXPECT_FALSE(rec.crash_points.empty());
}

TEST(CrashProduct, ShrinkRequireCrashRefusesCrashFreeDrift) {
  // shrink() with require_crash must hand back a trace whose replay
  // still realizes a crash — never a crash-free failure mode.
  const ExploreResult r = explore(exhibit_cell(), dfs_options(1));
  ASSERT_TRUE(r.found());
  ExperimentCell cell = exhibit_cell();
  cell.options.crashes = CrashPlan::explored(1);
  ShrinkOptions so;
  so.require_crash = true;
  const ShrinkResult sr = shrink(cell, r.violations.front().trace, so);
  EXPECT_TRUE(sr.verified);
  EXPECT_FALSE(sr.trace.crashes.empty());
}

TEST(CrashProduct, DfsHuntShrinksToPinnedCounterexamplesWithFewRuns) {
  // The benchmark's DFS hunt: bound-1 DFS of the schedule x crash
  // product to exhaustion, every violation shrunk. Pinned: each
  // violation's shrunk trace and the candidates its shrink judged.
  struct Pin {
    int index;
    const char* shrunk_digest;
    int replays;
  };
  const Pin expected[] = {
      {9, "c08c2a1118b5a2d6", 30},    {14, "fc1c1200bf8247c3", 401},
      {15, "e8ffb5ea3364b59a", 401},  {16, "4e946dd0f2512a80", 401},
      {17, "3ccaa6cb37c3b55a", 401},  {408, "c08c2a1118b5a2d6", 26},
      {411, "d247e44b7c621496", 23},  {418, "c08c2a1118b5a2d6", 27},
      {429, "c08c2a1118b5a2d6", 34},  {443, "d247e44b7c621496", 30},
      {448, "e1ae823bc62af662", 25},  {449, "02fe7c156aa6037a", 401},
      {450, "278e4990263cfc11", 401}, {451, "59a98f63eae44bb3", 401},
      {842, "d247e44b7c621496", 26},  {845, "c08c2a1118b5a2d6", 23},
      {852, "d247e44b7c621496", 27},  {863, "d247e44b7c621496", 34},
  };
  ExploreOptions o = dfs_options(1);
  o.dfs_preemption_bound = 1;
  o.budget = 100000;
  o.max_violations = 0;
  Counter& runs = metrics_registry().counter("explore.shrink_runs");
  const std::uint64_t runs_before = runs.value();
  const ExploreResult r = explore(exhibit_cell(), o);
  const std::uint64_t runs_spent = runs.value() - runs_before;

  EXPECT_TRUE(r.exhausted);
  ASSERT_EQ(r.violations.size(), std::size(expected));
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    const ExploreViolation& v = r.violations[i];
    EXPECT_EQ(v.schedule_index, expected[i].index) << "violation " << i;
    EXPECT_EQ(v.shrunk.digest(), expected[i].shrunk_digest)
        << "schedule " << v.schedule_index;
    EXPECT_EQ(v.shrink_replays, expected[i].replays)
        << "schedule " << v.schedule_index;
    EXPECT_TRUE(v.shrunk_verified) << "schedule " << v.schedule_index;
  }
  // Judging those 3,112 candidates takes few real runs: at least the
  // reproduction and verification replays of each shrink, and no
  // replay of a candidate equal to one judged earlier in its pass.
  EXPECT_GE(runs_spent, 2 * r.violations.size());
  EXPECT_LE(runs_spent, 600u);
}

// ------------------------------------------------- distribution

TEST(CrashProduct, ShardedCrashSearchMatchesInProcessByteForByte) {
  ExploreOptions o;
  o.policy = ExplorePolicy::kSeededRandom;
  o.budget = 60;
  o.crash_budget = 1;
  o.crash_rate = 0.2;
  const ExploreResult in_process = explore(exhibit_cell(), o);
  ASSERT_TRUE(in_process.found());
  o.shards = 2;  // fork-mode workers
  const ExploreResult sharded = explore(exhibit_cell(), o);
  EXPECT_EQ(sharded.to_json().dump(), in_process.to_json().dump());
}

TEST(CrashProduct, ParallelCrashSearchMatchesSerialByteForByte) {
  ExploreOptions o;
  o.policy = ExplorePolicy::kSeededRandom;
  o.budget = 60;
  o.crash_budget = 1;
  o.crash_rate = 0.2;
  const ExploreResult serial = explore(exhibit_cell(), o);
  o.threads = 3;
  const ExploreResult parallel = explore(exhibit_cell(), o);
  EXPECT_EQ(parallel.to_json().dump(), serial.to_json().dump());
}

// ------------------------------------------------- trace back-compat

TEST(CrashTrace, CrashFreeTraceKeepsPreCrashBytesAndDigest) {
  ScheduleTrace t;
  t.grants = {ThreadId{0, 0}, ThreadId{1, 0}, ThreadId{0, 0}};
  const std::string dump = t.to_json().dump();
  EXPECT_EQ(dump.find("crashes"), std::string::npos)
      << "crash-free traces must serialize exactly as before";
  ScheduleTrace with_crash = t;
  with_crash.crashes = {1};
  EXPECT_NE(with_crash.digest(), t.digest());
  EXPECT_NE(with_crash.to_json().dump(), dump);
}

TEST(CrashTrace, JsonRoundTripWithCrashes) {
  ScheduleTrace t;
  t.grants = {ThreadId{0, 0}, ThreadId{1, 0}, ThreadId{0, 0},
              ThreadId{1, 0}};
  t.crashes = {1, 3};
  const ScheduleTrace back = ScheduleTrace::from_json(t.to_json());
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.digest(), t.digest());
}

TEST(CrashTrace, DigestDistinguishesCrashPlacements) {
  ScheduleTrace a;
  a.grants = {ThreadId{0, 0}, ThreadId{1, 0}, ThreadId{0, 0}};
  ScheduleTrace b = a;
  a.crashes = {0};
  b.crashes = {2};
  EXPECT_NE(a.digest(), b.digest());
}

TEST(CrashTrace, FromJsonRejectsMalformedCrashes) {
  ScheduleTrace t;
  t.grants = {ThreadId{0, 0}, ThreadId{1, 0}};
  t.crashes = {5};  // out of range
  EXPECT_THROW(ScheduleTrace::from_json(t.to_json()), ProtocolError);
  t.crashes = {1, 1};  // not strictly ascending
  EXPECT_THROW(ScheduleTrace::from_json(t.to_json()), ProtocolError);
}

// ------------------------------------------------- policy stream pins

TEST(CrashProduct, UnscheduledCellRunsSeededRandomUnderExploredPlan) {
  // A cell with no schedule runs SeededRandom at its own seed, crash
  // draws included: naming the policy explicitly gives identical traces.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ExperimentCell unscheduled = exhibit_cell(seed);
    unscheduled.options.crashes = CrashPlan::explored(1, 0.2);
    unscheduled.record_schedule = true;
    const RunRecord a = run_cell(unscheduled);

    ExperimentCell plugged = unscheduled;
    plugged.schedule.kind = SchedulePolicyKind::kSeededRandom;
    plugged.schedule.seed = seed;
    const RunRecord b = run_cell(plugged);

    ASSERT_TRUE(a.schedule_trace && b.schedule_trace);
    EXPECT_EQ(a.schedule_trace->grants, b.schedule_trace->grants);
    EXPECT_EQ(a.schedule_trace->crashes, b.schedule_trace->crashes);
    EXPECT_EQ(a.schedule_digest, b.schedule_digest) << "seed " << seed;
  }
}

TEST(CrashProduct, ZeroRateExploredRunIsCleanAndDeterministic) {
  // Rate 0 never fires a crash; the run must be clean, crash-free and
  // reproducible byte for byte.
  ExperimentCell cell = exhibit_cell();
  cell.options.crashes = CrashPlan::explored(1, 0.0);
  cell.record_schedule = true;
  const RunRecord a = run_cell(cell);
  const RunRecord b = run_cell(cell);
  EXPECT_TRUE(a.ok());
  ASSERT_TRUE(a.schedule_trace);
  EXPECT_TRUE(a.schedule_trace->crashes.empty());
  EXPECT_TRUE(a.crash_points.empty());
  EXPECT_EQ(a.to_json(false).dump(), b.to_json(false).dump());
}

}  // namespace
}  // namespace mpcn
