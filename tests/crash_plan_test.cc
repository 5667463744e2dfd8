// Tests: src/runtime/crash_plan — the failure adversary's determinism
// contract, sharpened for the explored (director-driven) plan kind.
//
// The load-bearing pins:
//   * fixed / hazard / propose_trap realize exactly the crash points
//     (pid, own-step) and step counts the threaded lock-step runtime
//     realized, whose three wait strategies all agreed on them — the
//     adversary is part of the seeded execution identity, not an artifact
//     of how the step token is handed over. Across memory backends the
//     own-step STRUCTURE differs (afek expands one snapshot into many
//     register steps), so only own-step anchors reachable on both
//     substrates are mem-portable: the fixed test's early anchor realizes
//     identically on both; hazard and propose_trap realizations are
//     coupled to the substrate's schedule and pinned per mem (the
//     hazard pins were recorded again when the hazard stream became
//     splitmix64 of the plan's seed);
//   * RunRecord serializes the effective plan and the realized points,
//     and replaying the realized points as CrashPlan::fixed reproduces
//     the run exactly (replay-from-report);
//   * the explored plan round-trips through JSON and rejects nonsense.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "src/common/errors.h"
#include "src/experiment/experiment.h"
#include "src/runtime/crash_plan.h"
#include "src/tasks/algorithms.h"

namespace mpcn {
namespace {

const std::vector<MemKind> kMems = {MemKind::kPrimitive, MemKind::kAfek};

std::string points_key(const std::vector<CrashPoint>& pts) {
  std::ostringstream out;
  for (const CrashPoint& p : pts) {
    out << p.pid << '@' << p.at_step << ';';
  }
  return out.str();
}

// Per cell, keyed "seed/mem": the realized crash points and the step
// count, as "<pid>@<own-step>;... <steps>".
using RealizationPins = std::map<std::string, std::string>;

// Run the experiment over both mem backends and require every cell to
// realize its pinned crash points and step count.
void expect_realizations(Experiment& e, const RealizationPins& pins) {
  e.mems(kMems);
  const Report report = e.run_all();
  ASSERT_EQ(report.records.size(), pins.size());
  for (const RunRecord& rec : report.records) {
    ASSERT_TRUE(rec.error.empty()) << rec.error;
    const std::string key =
        std::to_string(rec.seed) + "/" + to_string(rec.mem);
    const auto it = pins.find(key);
    ASSERT_NE(it, pins.end()) << key;
    EXPECT_EQ(points_key(rec.crash_points) + " " + std::to_string(rec.steps),
              it->second)
        << key;
  }
}

TEST(CrashRealization, FixedPlanIdenticalAcrossMemAxes) {
  // Own-step 2 is reachable on BOTH substrates (a direct process's
  // second step is its snapshot on primitive mem, an inner register op
  // on afek mem), so the fixed anchor realizes as exactly 1@2 on both.
  Experiment e = Experiment::of(trivial_kset_algorithm(3, 1));
  e.direct()
      .inputs({Value(7), Value(8), Value(9)})
      .seeds(1, 3)
      .crashes(CrashPlan::fixed({CrashPoint{1, 2}}));
  expect_realizations(e, {{"1/primitive", "1@2; 7"},
                          {"1/afek", "1@2; 39"},
                          {"2/primitive", "1@2; 9"},
                          {"2/afek", "1@2; 30"},
                          {"3/primitive", "1@2; 6"},
                          {"3/afek", "1@2; 30"}});
}

TEST(CrashRealization, HazardPlanMatchesThreadedRuntime) {
  Experiment e = Experiment::of(trivial_kset_algorithm(4, 2));
  e.direct()
      .inputs({Value(0), Value(1), Value(2), Value(3)})
      .seeds(1, 3)
      // The hazard stream is drawn in schedule order, so realizations
      // are a property of the substrate's schedule. Rate high enough
      // that the grid crashes somebody.
      .crashes([](const ModelSpec& m, std::uint64_t seed) {
        return CrashPlan::hazard(0.2, m.t, seed);
      });
  expect_realizations(e, {{"1/primitive", "2@1; 8"},
                          {"1/afek", "1@2;2@3; 61"},
                          {"2/primitive", "0@2; 11"},
                          {"2/afek", "0@2;1@4; 42"},
                          {"3/primitive", "2@1;1@1; 7"},
                          {"3/afek", "2@1;1@1; 42"}});
}

TEST(CrashRealization, HazardFirstCrashIsNotTheSchedulersPick) {
  // The paper_grid cell: a cell seeds its scheduler and its hazard plan
  // with the same seed. Were both streams that seed's, step k's crash
  // draw would read grant k's index word, and every word low enough to
  // crash (below p * 2^64) picks index 0 of the runnable set: the first
  // crash would hit the lowest runnable process in almost every run.
  // Over 200 seeds, no pid may be first in more than half of the runs
  // that crash.
  Experiment e = Experiment::named("trivial_kset", ModelSpec{4, 2, 1});
  e.in(ModelSpec{8, 5, 3})
      .seeds(1, 200)
      .inputs_fn([](const ModelSpec& m) {
        std::vector<Value> v;
        for (int i = 0; i < m.n; ++i) v.push_back(Value(i));
        return v;
      })
      .crashes([](const ModelSpec& m, std::uint64_t seed) {
        return CrashPlan::hazard(0.001, m.t, seed);
      });
  const Report report = e.run_all();
  std::map<ProcessId, int> first;
  int crashing = 0;
  for (const RunRecord& rec : report.records) {
    ASSERT_TRUE(rec.ok()) << "seed " << rec.seed << ": " << rec.why;
    if (rec.crash_points.empty()) continue;
    ++crashing;
    ++first[rec.crash_points.front().pid];
  }
  ASSERT_GE(crashing, 100);
  for (const auto& [pid, count] : first) {
    EXPECT_LE(2 * count, crashing)
        << "pid " << pid << " crashes first in " << count << " of "
        << crashing << " crashing runs";
  }
}

TEST(CrashRealization, ProposeTrapMatchesThreadedRuntime) {
  // The Theorem 2 boundary scenario (legal: the source tolerates the
  // blocked process): both elected owners of INPUT/0 crash one own-step
  // after winning their test&set slot. Which process wins the slot (and
  // at which own-step) is a schedule property, so the pin is per mem.
  // The literals were recorded under the engines' stop rule (a cancelled
  // thread finishes its agreement propose), with local waits that take no
  // step, and with entry traps armed at a victim's first propose step.
  Experiment e = Experiment::of(trivial_kset_algorithm(4, 1));
  e.in(ModelSpec{4, 2, 2})
      .inputs({Value(0), Value(1), Value(2), Value(3)})
      .seeds(1, 2)
      .crashes(CrashPlan::propose_trap(
          {"INPUT/0"}, 2, 1, CrashPlan::TrapPoint::kOwnerElected));
  expect_realizations(e, {{"1/primitive", "3@23;0@41; 163"},
                          {"1/afek", "1@19;0@34; 329"},
                          {"2/primitive", "1@7;2@17; 166"},
                          {"2/afek", "1@7;2@17; 353"}});
}

// A propose trap names its object by key string, one family per kind of
// engine object: the snapshot agreements AG/<j>/<snapsn>, the simulated
// x-consensus objects XAG/<name> (at both trap points) and, above, the
// input agreements INPUT/<j>. A key that names no object traps nothing.
TEST(CrashRealization, ProposeTrapOnEveryKeyFamily) {
  const std::vector<Value> inputs = {Value(0), Value(1), Value(2), Value(3)};
  Experiment ag = Experiment::of(trivial_kset_algorithm(4, 1));
  ag.in(ModelSpec{4, 1, 1}).inputs(inputs).seeds(1, 3).crashes(
      CrashPlan::propose_trap({"AG/0/1"}, 1, 2));
  expect_realizations(ag, {{"1/primitive", "3@45; 199"},
                           {"1/afek", "3@99; 553"},
                           {"2/primitive", "2@35; 168"},
                           {"2/afek", "3@114; 627"},
                           {"3/primitive", "2@14; 217"},
                           {"3/afek", "2@56; 551"}});

  Experiment xag_entry = Experiment::of(group_kset_algorithm(4, 2, 2));
  xag_entry.in(ModelSpec{4, 1, 1}).inputs(inputs).seeds(1, 3).crashes(
      CrashPlan::propose_trap({"XAG/G0"}, 1, 2));
  expect_realizations(xag_entry, {{"1/primitive", "2@21; 217"},
                                  {"1/afek", "2@21; 411"},
                                  {"2/primitive", "1@13; 190"},
                                  {"2/afek", "1@13; 345"},
                                  {"3/primitive", "2@10; 208"},
                                  {"3/afek", "2@10; 362"}});

  Experiment xag_owner = Experiment::of(group_kset_algorithm(4, 2, 2));
  xag_owner.in(ModelSpec{4, 2, 2}).inputs(inputs).seeds(1, 3).crashes(
      CrashPlan::propose_trap({"XAG/G1"}, 2, 1,
                              CrashPlan::TrapPoint::kOwnerElected));
  expect_realizations(xag_owner, {{"1/primitive", "3@15;1@16; 200"},
                                  {"1/afek", "3@15;1@16; 318"},
                                  {"2/primitive", "0@17;3@16; 190"},
                                  {"2/afek", "0@17;3@16; 298"},
                                  {"3/primitive", "3@16;2@41; 206"},
                                  {"3/afek", "3@16;2@42; 290"}});

  Experiment nothing = Experiment::of(trivial_kset_algorithm(4, 1));
  nothing.in(ModelSpec{4, 1, 1}).inputs(inputs).seed(1).crashes(
      CrashPlan::propose_trap({"AG/9/9"}, 1, 2));
  expect_realizations(nothing,
                      {{"1/primitive", " 207"}, {"1/afek", " 590"}});
}

TEST(CrashRealization, RealizedPointsReplayAsFixedPlan) {
  // Replay-from-report: a hazard run's realized (pid, own-step) points,
  // replayed as CrashPlan::fixed, reproduce the record. Scan seeds for
  // one whose hazard actually fires (the scan itself is deterministic).
  RunRecord rec;
  std::uint64_t crashing_seed = 0;
  for (std::uint64_t seed = 1; seed <= 20 && crashing_seed == 0; ++seed) {
    Experiment e = Experiment::of(trivial_kset_algorithm(3, 1));
    e.direct()
        .inputs({Value(4), Value(5), Value(6)})
        .seed(seed)
        .crashes(CrashPlan::hazard(0.3, 1, 99 + seed));
    const Report original = e.run_all();
    ASSERT_EQ(original.records.size(), 1u);
    if (!original.records.front().crash_points.empty()) {
      rec = original.records.front();
      crashing_seed = seed;
    }
  }
  ASSERT_NE(crashing_seed, 0u) << "no seed in 1..20 crashed";

  Experiment replay = Experiment::of(trivial_kset_algorithm(3, 1));
  replay.direct()
      .inputs({Value(4), Value(5), Value(6)})
      .seed(crashing_seed)
      .crashes(CrashPlan::fixed(rec.crash_points));
  const RunRecord back = replay.run_all().records.front();
  EXPECT_EQ(back.crashed, rec.crashed);
  EXPECT_EQ(points_key(back.crash_points), points_key(rec.crash_points));
  EXPECT_EQ(back.steps, rec.steps);
  for (std::size_t i = 0; i < rec.decisions.size(); ++i) {
    EXPECT_EQ(back.decisions[i].has_value(), rec.decisions[i].has_value());
  }
}

TEST(CrashRealization, RecordSerializesPlanAndPoints) {
  Experiment e = Experiment::of(trivial_kset_algorithm(3, 1));
  e.direct()
      .inputs({Value(0), Value(1), Value(2)})
      .seed(1)
      .crashes(CrashPlan::fixed({CrashPoint{2, 2}}));
  const RunRecord rec = e.run_all().records.front();
  ASSERT_FALSE(rec.crash_plan.is_none());
  ASSERT_EQ(rec.crash_points.size(), 1u);
  EXPECT_EQ(rec.crash_points[0].pid, 2);
  EXPECT_EQ(rec.crash_points[0].at_step, 2u);

  const RunRecord back = RunRecord::from_json(rec.to_json(false));
  EXPECT_FALSE(back.crash_plan.is_none());
  ASSERT_EQ(back.crash_points.size(), 1u);
  EXPECT_EQ(back.crash_points[0].pid, rec.crash_points[0].pid);
  EXPECT_EQ(back.crash_points[0].at_step, rec.crash_points[0].at_step);
  EXPECT_EQ(back.to_json(false).dump(), rec.to_json(false).dump());
}

TEST(CrashRealization, CrashFreeRecordKeepsPreCrashBytes) {
  // No plan, no crashes: the new fields must not appear in the JSON.
  Experiment e = Experiment::of(trivial_kset_algorithm(3, 0));
  e.direct().inputs({Value(0), Value(1), Value(2)}).seed(1);
  const RunRecord rec = e.run_all().records.front();
  const std::string dump = rec.to_json(false).dump();
  EXPECT_EQ(dump.find("crash_plan"), std::string::npos);
  EXPECT_EQ(dump.find("crash_points"), std::string::npos);
}

TEST(ExploredPlan, JsonRoundTripAndValidation) {
  const CrashPlan plan = CrashPlan::explored(2, 0.25);
  EXPECT_TRUE(plan.is_explored());
  EXPECT_FALSE(plan.is_none());
  EXPECT_EQ(plan.budget(5), 2);
  EXPECT_EQ(plan.budget(1), 1);  // capped at n
  const CrashPlan back = CrashPlan::from_json(plan.to_json());
  EXPECT_TRUE(back.is_explored());
  EXPECT_EQ(back.to_json().dump(), plan.to_json().dump());

  EXPECT_THROW(CrashPlan::explored(0), std::invalid_argument);
  EXPECT_THROW(CrashPlan::explored(1, -0.5), std::invalid_argument);
  EXPECT_THROW(CrashPlan::explored(1, 1.5), std::invalid_argument);
}

TEST(ExploredPlan, WithoutDirectorBehavesLikeNone) {
  // An explored plan outside the explorer (no director attached) places
  // no crashes on its own.
  CrashManager mgr(3, CrashPlan::explored(2));
  for (int s = 0; s < 50; ++s) {
    for (int p = 0; p < 3; ++p) {
      EXPECT_FALSE(mgr.on_step(ThreadId{p, 0}));
    }
  }
  EXPECT_TRUE(mgr.realized().empty());
}

TEST(ExploredPlan, DirectedCrashLandsOnNextStepOfThatThreadOnly) {
  CrashManager mgr(3, CrashPlan::explored(1));
  EXPECT_EQ(mgr.budget_remaining(), 1);
  EXPECT_TRUE(mgr.crashable(1));
  ASSERT_TRUE(mgr.direct_crash(ThreadId{1, 0}));
  // Another thread stepping first must NOT absorb the directive.
  EXPECT_FALSE(mgr.on_step(ThreadId{0, 0}));
  EXPECT_TRUE(mgr.on_step(ThreadId{1, 0}));
  EXPECT_TRUE(mgr.is_crashed(1));
  EXPECT_EQ(mgr.budget_remaining(), 0);
  EXPECT_FALSE(mgr.crashable(1));
  // Budget exhausted: further directives are refused.
  EXPECT_FALSE(mgr.direct_crash(ThreadId{2, 0}));
  ASSERT_EQ(mgr.realized().size(), 1u);
  EXPECT_EQ(mgr.realized()[0].pid, 1);
}

}  // namespace
}  // namespace mpcn
