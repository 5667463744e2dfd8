// Tests: src/explore — schedule policies, trace record/replay, the
// explorer's PCT/DFS searches against the seeded racy_register exhibit,
// the delta-debugging shrinker, and the merge/wire integration of the
// schedule fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

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

TEST(SeededRandomPolicy, IsTheScheduleOfACellWithNoSchedule) {
  // A cell with no schedule runs SeededRandom at its own seed: naming
  // the policy and the seed explicitly changes no byte of the record.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ExperimentCell unscheduled =
        named_cell("snapshot_churn", ModelSpec{3, 0, 1}, seed);
    const RunRecord a = run_recorded(unscheduled);

    ExperimentCell plugged = unscheduled;
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
  // Literal digests of the default seeded schedules on the exhibit
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

TEST(PctPolicy, PinnedDigestsForCurrentSeeds) {
  // Literal PCT schedules. The other PCT tests compare two backends of
  // one build, so only these notice a reordered priority draw or a moved
  // change point.
  struct Pin {
    std::uint64_t seed;
    const char* digest;
    std::uint64_t steps;
  };
  const auto run_pct = [](ExperimentCell cell, std::uint64_t seed,
                          std::uint64_t horizon) {
    cell.schedule.kind = SchedulePolicyKind::kPct;
    cell.schedule.seed = seed;
    cell.schedule.pct_depth = 4;
    cell.schedule.pct_horizon = horizon;
    return run_recorded(cell);
  };
  const auto engine_cell = [](std::uint64_t limit) {
    Experiment e = Experiment::named("trivial_kset", ModelSpec{2, 1, 1});
    e.in(ModelSpec{3, 1, 1}).seed(1).step_limit(limit).inputs_fn(
        index_inputs);
    return e.cells().front();
  };

  // Afek snapshot churn: three direct threads, change points anywhere in
  // a run of about 2,000 grants.
  Experiment churn = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  churn.direct().seed(1).mem(MemKind::kAfek).inputs_fn(index_inputs);
  const Pin afek[] = {{1, "49935a50f8ff7d03", 1710},
                      {2, "8b10b1ecec355003", 1704},
                      {3, "08fae4ae2c6d26a3", 1704}};
  for (const Pin& pin : afek) {
    const RunRecord rec = run_pct(churn.cells().front(), pin.seed, 2000);
    EXPECT_EQ(rec.schedule_digest, pin.digest) << "afek seed " << pin.seed;
    EXPECT_EQ(rec.steps, pin.steps) << "afek seed " << pin.seed;
    EXPECT_FALSE(rec.timed_out);
  }

  // A BG engine cell: simulators and their forked children interleave in
  // ThreadId order, and the runnable set shrinks and regrows under the
  // change points as children finish and parents wait out ~ChildHandle.
  const Pin engine[] = {{2, "e908401276b95f30", 43},
                        {4, "fcd40341a41d7a23", 42},
                        {8, "6a9bc652c6c98a93", 53}};
  for (const Pin& pin : engine) {
    const RunRecord rec = run_pct(engine_cell(20000), pin.seed, 120);
    EXPECT_EQ(rec.schedule_digest, pin.digest) << "engine seed " << pin.seed;
    EXPECT_EQ(rec.steps, pin.steps) << "engine seed " << pin.seed;
    EXPECT_FALSE(rec.timed_out);
  }

  // The same cell stopped at its step limit: the parked fibers unwind.
  const RunRecord stopped = run_pct(engine_cell(60), 1, 120);
  EXPECT_EQ(stopped.schedule_digest, "997ba2c9f77c3b61");
  EXPECT_EQ(stopped.steps, 60u);
  EXPECT_TRUE(stopped.timed_out);
}

// PCT's rule written with a map lookup per runnable thread: the reference
// for the policy's flat table.
class MapPct {
 public:
  MapPct(std::uint64_t seed, int depth, std::uint64_t horizon) : rng_(seed) {
    const std::uint64_t want = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(depth - 1), horizon - 1);
    while (points_.size() < want) {
      points_.insert(1 + rng_.index(static_cast<std::size_t>(horizon - 1)));
    }
  }

  std::size_t pick(const std::vector<ThreadId>& runnable) {
    for (const ThreadId& t : runnable) {
      if (!priority_.count(t)) {
        priority_[t] = (1ull << 32) + rng_.index(1u << 20);
      }
    }
    const auto leader = [&] {
      std::size_t best = 0;
      for (std::size_t i = 1; i < runnable.size(); ++i) {
        if (priority_[runnable[i]] > priority_[runnable[best]]) best = i;
      }
      return best;
    };
    if (points_.count(grants_)) priority_[runnable[leader()]] = low_--;
    ++grants_;
    return leader();
  }

 private:
  Rng rng_;
  std::set<std::uint64_t> points_;
  std::map<ThreadId, std::uint64_t> priority_;
  std::uint64_t low_ = 1ull << 31;
  std::uint64_t grants_ = 0;
};

TEST(PctPolicy, MatchesMapReferenceAsThreadsComeAndGo) {
  // A run shows all its threads at its first grant, so only here do
  // threads first appear mid-run, between threads already ranked.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    PctPolicy policy(seed, 6, 150);
    MapPct reference(seed, 6, 150);
    Rng shape(seed + 1000);
    for (int grant = 0; grant < 200; ++grant) {
      std::vector<ThreadId> runnable;
      for (int pid = 0; pid < 4; ++pid) {
        for (int sub = 0; sub < 3; ++sub) {
          if (shape.chance(0.3)) runnable.push_back(ThreadId{pid, sub});
        }
      }
      if (runnable.empty()) runnable.push_back(ThreadId{2, 1});
      ASSERT_EQ(policy.pick(runnable, nullptr).index,
                reference.pick(runnable))
          << "seed " << seed << " grant " << grant;
    }
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

// The digest as its contract states it: FNV-1a 64, one byte at a time,
// over the little-endian int32 (pid, sub) stream, then, when crashes
// exist, a sentinel word and each mark's low and high words.
std::string bytewise_fnv_digest(const ScheduleTrace& t) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint32_t word) {
    for (int i = 0; i < 4; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const ThreadId& g : t.grants) {
    mix(static_cast<std::uint32_t>(g.pid));
    mix(static_cast<std::uint32_t>(g.sub));
  }
  if (!t.crashes.empty()) {
    mix(0xc4a54ed5u);
    for (std::uint64_t c : t.crashes) {
      mix(static_cast<std::uint32_t>(c));
      mix(static_cast<std::uint32_t>(c >> 32));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(ScheduleTrace, DigestMatchesBytewiseFnv) {
  // Mostly small ids, as every workload has, plus the words no workload
  // reaches: pids and subs of 256 and above, pid -1, negative subs and
  // crash marks at or above 2^32.
  Rng rng(20261018);
  const auto id = [&rng]() -> int {
    switch (rng.index(6)) {
      case 0:
        return -1;
      case 1:
        return 256 + static_cast<int>(rng.index(1u << 20));
      case 2:
        return static_cast<int>(static_cast<std::uint32_t>(rng.fork()));
      default:
        return static_cast<int>(rng.index(256));
    }
  };
  for (int round = 0; round < 300; ++round) {
    ScheduleTrace t;
    const std::size_t grants = rng.index(48);
    for (std::size_t i = 0; i < grants; ++i) {
      t.grants.push_back(ThreadId{id(), id()});
    }
    std::uint64_t mark = 0;
    while (rng.chance(0.4)) {
      mark += 1 + (rng.chance(0.3) ? rng.fork() >> 20 : rng.index(300));
      t.crashes.push_back(mark);
    }
    EXPECT_EQ(t.digest(), bytewise_fnv_digest(t)) << "round " << round;
  }
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
  EXPECT_EQ(p.pick(runnable, nullptr).index, 1u);
  EXPECT_EQ(p.skipped(), 1u);
  // q0 matches.
  EXPECT_EQ(p.pick(runnable, nullptr).index, 0u);
  // Script exhausted: lowest runnable thread.
  EXPECT_EQ(p.pick(runnable, nullptr).index, 0u);
  EXPECT_EQ(p.fallback_grants(), 1u);
}

TEST(SchedulePolicy, OutOfRangePickIsCapturedAsCellError) {
  struct Bad : SchedulePolicy {
    GrantChoice pick(const std::vector<ThreadId>& runnable,
                     CrashDirector*) override {
      return GrantChoice{runnable.size() + 3, false};
    }
  };
  ExperimentCell cell = named_cell("snapshot_churn", ModelSpec{2, 0, 1}, 1);
  cell.options.schedule_policy = std::make_shared<Bad>();
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
  cell.options.schedule_policy = std::make_shared<BoundedDfsPolicy>(1);
  EXPECT_THROW(CellSpec::from_cell(cell), ProtocolError);

  // A policy object handed in through Experiment::base_options: a
  // worker would rebuild the cell without it and run the seed's default
  // schedule, so the wire refuses it, and a sharded batch fails before
  // it forks.
  ScheduleSpec pct;
  pct.kind = SchedulePolicyKind::kPct;
  pct.pct_horizon = 64;
  ExecutionOptions options;
  options.seed = 3;
  options.schedule_policy = make_policy(pct, options.seed);
  Experiment e = Experiment::named("racy_register", ModelSpec{2, 0, 1});
  e.direct().base_options(options).inputs_fn(index_inputs);
  const std::vector<ExperimentCell> based = e.cells();
  ASSERT_EQ(based.size(), 1u);
  EXPECT_THROW(CellSpec::from_cell(based.front()), ProtocolError);
  BatchOptions batch;
  batch.shards = 1;
  EXPECT_THROW(run_batch(based, batch), ProtocolError);

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
