// Tests: src/explore — schedule policies, trace record/replay, the
// explorer's PCT/DFS searches against the seeded racy_register exhibit,
// the delta-debugging shrinker, and the merge/wire integration of the
// schedule fields.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/dist/wire.h"
#include "src/experiment/batch_runner.h"
#include "src/experiment/diff.h"
#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"
#include "src/explore/policy.h"
#include "src/explore/trace.h"
#include "src/history/history.h"
#include "src/history/linearizability.h"
#include "src/obs/metrics.h"
#include "src/tasks/algorithms.h"

namespace mpcn {
namespace {

std::vector<Value> index_inputs(const ModelSpec& m) {
  std::vector<Value> in;
  for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
  return in;
}

// One direct-mode cell of a registry scenario, grid-stamped at index 0.
ExperimentCell named_cell(const std::string& scenario, const ModelSpec& m,
                          std::uint64_t seed) {
  Experiment e = Experiment::named(scenario, m);
  e.direct().seed(seed).inputs_fn(index_inputs);
  return e.cells().front();
}

RunRecord run_recorded(ExperimentCell cell) {
  cell.record_schedule = true;
  return run_cell(cell);
}

// ------------------------------------------------------------ policies

TEST(SeededRandomPolicy, MatchesBuiltinGrantScheduleByteForByte) {
  // The acceptance pin: plugging the SchedulePolicy seam in with the
  // SeededRandom policy reproduces the controller's built-in schedule
  // exactly, for the current seeds.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ExperimentCell builtin =
        named_cell("snapshot_churn", ModelSpec{3, 0, 1}, seed);
    const RunRecord a = run_recorded(builtin);

    ExperimentCell plugged = builtin;
    plugged.schedule.kind = SchedulePolicyKind::kSeededRandom;
    plugged.schedule.seed = seed;
    const RunRecord b = run_recorded(plugged);

    ASSERT_TRUE(a.schedule_trace && b.schedule_trace);
    EXPECT_EQ(a.schedule_trace->grants, b.schedule_trace->grants)
        << "seed " << seed;
    EXPECT_EQ(a.schedule_digest, b.schedule_digest);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.to_json(false).dump(), b.to_json(false).dump());
  }
}

TEST(SeededRandomPolicy, PinnedDigestsForCurrentSeeds) {
  // Literal digests of the built-in seeded schedules on the exhibit
  // cell. If these move, the deterministic adversary changed and every
  // recorded trace in the wild is invalidated — that must be a
  // deliberate, documented decision, not a drive-by.
  const char* expected[] = {"b3f68d09d0573f23", "c0f90204d2760363",
                            "ac116fafd1760143"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const RunRecord rec = run_recorded(
        named_cell("racy_register", ModelSpec{2, 0, 1}, seed));
    EXPECT_EQ(rec.schedule_digest, expected[seed - 1]) << "seed " << seed;
  }
}

TEST(ScheduleTrace, JsonRoundTripAndDigest) {
  ScheduleTrace t;
  t.grants = {ThreadId{0, 0}, ThreadId{1, 0}, ThreadId{0, 2},
              ThreadId{2, 1}};
  const ScheduleTrace back = ScheduleTrace::from_json(t.to_json());
  EXPECT_EQ(back.grants, t.grants);
  EXPECT_EQ(back.digest(), t.digest());
  EXPECT_EQ(t.digest().size(), 16u);
  ScheduleTrace other = t;
  other.grants[1] = ThreadId{1, 1};
  EXPECT_NE(other.digest(), t.digest());
}

TEST(ScheduleSpec, JsonRoundTripAllKinds) {
  ScheduleSpec random;
  random.kind = SchedulePolicyKind::kSeededRandom;
  random.seed = 42;
  EXPECT_EQ(ScheduleSpec::from_json(random.to_json()), random);

  ScheduleSpec pct;
  pct.kind = SchedulePolicyKind::kPct;
  pct.seed = 7;
  pct.pct_depth = 4;
  pct.pct_horizon = 120;
  EXPECT_EQ(ScheduleSpec::from_json(pct.to_json()), pct);

  ScheduleSpec scripted;
  scripted.kind = SchedulePolicyKind::kScripted;
  ScheduleTrace t;
  t.grants = {ThreadId{1, 0}, ThreadId{0, 0}};
  scripted.script = std::make_shared<const ScheduleTrace>(t);
  const ScheduleSpec back = ScheduleSpec::from_json(scripted.to_json());
  EXPECT_EQ(back, scripted);
  ASSERT_TRUE(back.script);
  EXPECT_EQ(back.script->grants, t.grants);
}

TEST(ScriptedPolicy, SkipsDeadEntriesAndFallsBack) {
  ScheduleTrace t;
  t.grants = {ThreadId{5, 0}, ThreadId{1, 0}, ThreadId{0, 0}};
  ScriptedPolicy p(std::make_shared<const ScheduleTrace>(t));
  const std::vector<ThreadId> runnable = {ThreadId{0, 0}, ThreadId{1, 0}};
  // q5 is not runnable: skipped; q1 matches.
  EXPECT_EQ(p.pick(runnable, 0), 1u);
  EXPECT_EQ(p.skipped(), 1u);
  // q0 matches.
  EXPECT_EQ(p.pick(runnable, 1), 0u);
  // Script exhausted: lowest runnable thread.
  EXPECT_EQ(p.pick(runnable, 2), 0u);
  EXPECT_EQ(p.fallback_grants(), 1u);
}

TEST(SchedulePolicy, OutOfRangePickIsCapturedAsCellError) {
  struct Bad : SchedulePolicy {
    std::size_t pick(const std::vector<ThreadId>& runnable,
                     std::uint64_t) override {
      return runnable.size() + 3;
    }
  };
  ExperimentCell cell = named_cell("snapshot_churn", ModelSpec{2, 0, 1}, 1);
  cell.policy_override = std::make_shared<Bad>();
  const RunRecord rec = run_cell(cell);
  EXPECT_NE(rec.error.find("SchedulePolicy::pick"), std::string::npos)
      << rec.error;
}

// ------------------------------------------------- replay determinism

TEST(Replay, ScriptedReplayIsByteIdenticalToTheRecordedRun) {
  const ExperimentCell cell =
      named_cell("snapshot_churn", ModelSpec{3, 0, 1}, 9);
  const RunRecord recorded = run_recorded(cell);
  ASSERT_TRUE(recorded.schedule_trace);

  const RunRecord replayed = replay_trace(cell, *recorded.schedule_trace);
  EXPECT_EQ(replayed.schedule_digest, recorded.schedule_digest);
  EXPECT_EQ(replayed.to_json(false).dump(), recorded.to_json(false).dump());
}

// --------------------------------------------------- search: the bug

TEST(Explore, SeededRandomMissesTheRacyWindow) {
  // The torn window sits at the end of the writer's padded timeline;
  // uniform schedules spend the readers' few snapshots near the front.
  // This is exactly why the explorer exists.
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kSeededRandom;
  opts.seed = 1;
  opts.budget = 60;
  opts.shrink_violations = false;
  const ExploreResult result =
      explore(named_cell("racy_register", ModelSpec{2, 0, 1}, 1), opts);
  EXPECT_FALSE(result.found());
  EXPECT_EQ(result.schedules, 60);
}

TEST(Explore, PctFindsTheRacyWindowAndShrinksTheTrace) {
  const ExperimentCell cell =
      named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 1;
  opts.budget = 200;
  const ExploreResult result = explore(cell, opts);
  ASSERT_TRUE(result.found());
  const ExploreViolation& v = result.violations.front();
  EXPECT_NE(v.why.find("validity"), std::string::npos) << v.why;
  EXPECT_NE(v.why.find("-1"), std::string::npos) << v.why;

  // The shrinker contract: locally minimal, pinned length, and the
  // artifact still fails on replay.
  EXPECT_TRUE(v.shrunk_verified);
  EXPECT_LE(v.shrunk.size(), 14u);  // pinned: warmup + torn write + read
  EXPECT_LE(v.shrunk.size(), v.trace.size());
  const RunRecord refail = replay_trace(cell, v.shrunk);
  EXPECT_FALSE(refail.ok());
  EXPECT_TRUE(refail.validated && !refail.valid);

  // Locally minimal: dropping ANY single grant loses the failure.
  for (std::size_t i = 0; i < v.shrunk.size(); ++i) {
    ScheduleTrace candidate;
    candidate.grants = v.shrunk.grants;
    candidate.grants.erase(candidate.grants.begin() +
                           static_cast<long>(i));
    EXPECT_TRUE(replay_trace(cell, candidate).ok())
        << "dropping grant " << i << " should repair the schedule";
  }
}

TEST(Explore, EqualRawTracesShareOneShrink) {
  // PCT finds the torn window again and again under only a couple of
  // distinct schedules. Each violation still reports its full shrink,
  // but one shrink per distinct (trace, race, crashed) does the runs.
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 7;
  opts.budget = 2000;
  opts.max_violations = 0;
  opts.check_races = true;
  Counter& judged = metrics_registry().counter("explore.shrink_replays");
  Counter& runs = metrics_registry().counter("explore.shrink_runs");
  const std::uint64_t judged_before = judged.value();
  const std::uint64_t runs_before = runs.value();
  const ExploreResult result =
      explore(named_cell("racy_register", ModelSpec{2, 0, 1}, 7), opts);
  const std::uint64_t judged_spent = judged.value() - judged_before;
  const std::uint64_t runs_spent = runs.value() - runs_before;

  ASSERT_EQ(result.violations.size(), 36u);
  std::vector<const ExploreViolation*> firsts;  // one per raw trace
  std::uint64_t reported = 0;
  for (const ExploreViolation& v : result.violations) {
    EXPECT_TRUE(v.race);
    EXPECT_TRUE(v.shrunk_verified);
    reported += static_cast<std::uint64_t>(v.shrink_replays);
    const auto first = std::find_if(
        firsts.begin(), firsts.end(),
        [&](const ExploreViolation* f) { return f->trace == v.trace; });
    if (first == firsts.end()) {
      firsts.push_back(&v);
      continue;
    }
    EXPECT_EQ(v.shrunk.digest(), (*first)->shrunk.digest())
        << "schedule " << v.schedule_index;
    EXPECT_EQ(v.shrink_replays, (*first)->shrink_replays)
        << "schedule " << v.schedule_index;
  }
  EXPECT_EQ(firsts.size(), 2u);
  // The counter keeps the report's candidate count; the runs are a
  // small fraction of it.
  EXPECT_EQ(judged_spent, reported);
  EXPECT_GE(runs_spent, 2 * firsts.size());
  EXPECT_LT(10 * runs_spent, judged_spent);
}

TEST(Explore, BoundedDfsFindsTheRacyWindowSystematically) {
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kBoundedDfs;
  opts.budget = 50;
  opts.dfs_preemption_bound = 1;
  const ExploreResult result =
      explore(named_cell("racy_register", ModelSpec{2, 0, 1}, 1), opts);
  ASSERT_TRUE(result.found());
  // The first preemption the DFS tries is at the deepest choice point —
  // exactly the torn window — so the find is nearly immediate.
  EXPECT_LE(result.violations.front().schedule_index, 5);
  EXPECT_TRUE(result.violations.front().shrunk_verified);
}

TEST(Explore, BoundedDfsExhaustsATinyScheduleSpace) {
  // Two processes, one shared-memory step each: the bounded tree is a
  // handful of schedules; the DFS must report exhaustion, find nothing,
  // and stop well under budget.
  SimulatedAlgorithm a;
  a.model = ModelSpec{2, 0, 1};
  for (int j = 0; j < 2; ++j) {
    a.programs.push_back([](SimContext& sc) {
      sc.write(sc.input());
      sc.decide(sc.input());
    });
  }
  ExperimentCell cell = Experiment::of(std::move(a))
                            .direct()
                            .seed(1)
                            .inputs_fn(index_inputs)
                            .cells()
                            .front();
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kBoundedDfs;
  opts.budget = 1000;
  opts.dfs_preemption_bound = 2;
  opts.shrink_violations = false;
  const ExploreResult result = explore(cell, opts);
  EXPECT_TRUE(result.exhausted);
  EXPECT_FALSE(result.found());
  EXPECT_LT(result.schedules, 64);
}

TEST(Explore, ShardedPctMatchesInProcessSearch) {
  const ExperimentCell cell =
      named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  ExploreOptions local;
  local.policy = ExplorePolicy::kPct;
  local.seed = 1;
  local.budget = 100;
  local.shrink_violations = false;
  const ExploreResult a = explore(cell, local);

  ExploreOptions sharded = local;
  sharded.shards = 2;  // fork workers: no binary needed
  const ExploreResult b = explore(cell, sharded);

  ASSERT_TRUE(a.found());
  ASSERT_TRUE(b.found());
  // The whole report, not just the first violation's identity, and the
  // first schedule's trace (what --record writes).
  EXPECT_EQ(b.to_json().dump(), a.to_json().dump());
  EXPECT_FALSE(a.first_trace.empty());
  EXPECT_TRUE(b.first_trace == a.first_trace);
}

TEST(Explore, SequentialSpecOracleObservesDirectHistories) {
  // Correct workload + snapshot spec: the oracle runs and stays quiet.
  SimulatedAlgorithm a;
  a.model = ModelSpec{2, 0, 1};
  for (int j = 0; j < 2; ++j) {
    a.programs.push_back([](SimContext& sc) {
      sc.write(sc.input());
      (void)sc.snapshot();
      sc.decide(sc.input());
    });
  }
  ExperimentCell cell = Experiment::of(std::move(a))
                            .direct()
                            .seed(3)
                            .inputs_fn(index_inputs)
                            .cells()
                            .front();
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kSeededRandom;
  opts.budget = 5;
  opts.spec = std::make_shared<const SnapshotSpec>(2);
  const ExploreResult result = explore(cell, opts);
  EXPECT_FALSE(result.found());
  EXPECT_EQ(result.skipped_spec_checks, 0);

  // The hook itself records complete, linearizable events.
  auto history = std::make_shared<HistoryRecorder>();
  ExperimentCell observed = cell;
  observed.history = history;
  ASSERT_TRUE(run_cell(observed).ok());
  const std::vector<Event> events = history->events();
  EXPECT_EQ(events.size(), 4u);  // 2 writes + 2 snapshots
  EXPECT_TRUE(is_linearizable(events, SnapshotSpec(2)));
}

// A search whose spec checks were skipped must not read as fully clean:
// the summary counts the skips, with or without violations.
TEST(Explore, SummaryCountsSkippedLinChecks) {
  ExploreResult r;
  r.policy = ExplorePolicy::kSeededRandom;
  r.schedules = 5;
  EXPECT_EQ(r.summary(), "random: 5 schedule(s), no violations");
  r.skipped_spec_checks = 3;
  EXPECT_EQ(r.summary(),
            "random: 5 schedule(s), no violations, 3 lin check(s) skipped "
            "(history over 64 ops)");
  ExploreViolation v;
  v.why = "timed out (liveness)";
  r.violations.push_back(v);
  EXPECT_EQ(r.summary(),
            "random: 5 schedule(s), 1 violation(s), 3 lin check(s) skipped "
            "(history over 64 ops); first: timed out (liveness), trace 0 -> "
            "0 grants (UNVERIFIED)");
}

TEST(Explore, RejectsUnshardableConfigurations) {
  const ExperimentCell cell =
      named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  ExploreOptions dfs;
  dfs.policy = ExplorePolicy::kBoundedDfs;
  dfs.shards = 2;
  EXPECT_THROW(explore(cell, dfs), ProtocolError);

  ExploreOptions spec;
  spec.policy = ExplorePolicy::kPct;
  spec.shards = 2;
  spec.spec = std::make_shared<const SnapshotSpec>(2);
  EXPECT_THROW(explore(cell, spec), ProtocolError);
}

// --------------------------------------------------- wire integration

TEST(Wire, CellSpecCarriesScheduleAndRecordFlag) {
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  cell.schedule.kind = SchedulePolicyKind::kPct;
  cell.schedule.seed = 11;
  cell.schedule.pct_depth = 2;
  cell.schedule.pct_horizon = 64;
  cell.record_schedule = true;

  const CellSpec spec = CellSpec::from_cell(cell);
  const CellSpec back = CellSpec::from_json(spec.to_json());
  EXPECT_EQ(back.schedule, cell.schedule);
  EXPECT_TRUE(back.record_schedule);

  // A worker-side rebuild runs the identical schedule.
  const RunRecord theirs = run_cell(back.to_cell());
  const RunRecord ours = run_cell(cell);
  EXPECT_EQ(theirs.schedule_digest, ours.schedule_digest);
  EXPECT_EQ(theirs.to_json(false).dump(), ours.to_json(false).dump());
}

TEST(Wire, RejectsInProcessHooks) {
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  cell.policy_override = std::make_shared<BoundedDfsPolicy>(1);
  EXPECT_THROW(CellSpec::from_cell(cell), ProtocolError);

  ExperimentCell hooked = named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  hooked.history = std::make_shared<HistoryRecorder>();
  EXPECT_THROW(CellSpec::from_cell(hooked), ProtocolError);
}

TEST(RunRecordJson, ScheduleFieldsRoundTripAndStayOptional) {
  const RunRecord rec =
      run_recorded(named_cell("racy_register", ModelSpec{2, 0, 1}, 2));
  ASSERT_FALSE(rec.schedule_digest.empty());
  ASSERT_TRUE(rec.schedule_trace);
  const RunRecord back = RunRecord::from_json(rec.to_json(false));
  EXPECT_EQ(back.schedule_digest, rec.schedule_digest);
  ASSERT_TRUE(back.schedule_trace);
  EXPECT_EQ(back.schedule_trace->grants, rec.schedule_trace->grants);

  // Unrecorded runs serialize without the fields (pre-explorer format).
  ExperimentCell plain = named_cell("racy_register", ModelSpec{2, 0, 1}, 2);
  const Json j = run_cell(plain).to_json(false);
  EXPECT_EQ(j.find("schedule_digest"), nullptr);
  EXPECT_EQ(j.find("schedule_trace"), nullptr);
}

// ------------------------------------------------ merge compat (PR4-)

TEST(ReportMerge, ToleratesRecordsWithoutCellIndex) {
  RunRecord stamped;
  stamped.scenario = "s";
  stamped.cell_index = 0;
  stamped.seed = 1;
  RunRecord old_a;  // pre-PR4 baseline record: no grid stamp
  old_a.scenario = "s";
  old_a.seed = 2;
  old_a.steps = 10;
  RunRecord old_b = old_a;
  old_b.seed = 3;

  Report part1;
  part1.title = "t";
  part1.records = {stamped, old_a};
  Report part2;
  part2.records = {old_b, old_a};  // old_a again: exact duplicate

  const Report merged = Report::merge({part1, part2});
  ASSERT_EQ(merged.records.size(), 3u);
  EXPECT_EQ(merged.records[0].cell_index, 0);  // stamped records first
  EXPECT_EQ(merged.records[1].seed, 2u);       // then part order
  EXPECT_EQ(merged.records[2].seed, 3u);       // duplicate dropped

  // Same identity, different payload: kept (identity is not unique).
  RunRecord old_c = old_a;
  old_c.steps = 99;
  Report part3;
  part3.records = {old_c};
  EXPECT_EQ(Report::merge({part1, part3}).records.size(), 3u);

  // diff_reports pairs unstamped records by identity just the same.
  const ReportDiff diff = diff_reports(part1, part1);
  EXPECT_EQ(diff.matched, 2);
  EXPECT_FALSE(diff.has_regressions());
}

}  // namespace
}  // namespace mpcn
