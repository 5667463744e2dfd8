// Tests: src/experiment — the unified Experiment builder, the scenario
// registry, the BatchRunner and the structured-report pipeline.
//
// The load-bearing contracts:
//   * every cell's record carries its mode, target, seed and chain hop;
//   * a seed x model grid expands deterministically and its Report JSON
//     (timing excluded) is byte-identical across runs and pool sizes;
//   * RunRecord round-trips through JSON;
//   * registry lookups fail loudly for unknown names.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/experiment/batch_runner.h"
#include "src/experiment/experiment.h"
#include "src/experiment/record.h"
#include "src/experiment/registry.h"
#include "src/tasks/algorithms.h"
#include "src/tasks/task.h"

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 900000) {
  ExecutionOptions o;
  o.mode = SchedulerMode::kLockstep;
  o.seed = seed;
  o.step_limit = limit;
  return o;
}

std::vector<Value> int_inputs(int n, int base = 0) {
  std::vector<Value> v;
  for (int i = 0; i < n; ++i) v.push_back(Value(base + i));
  return v;
}

// ------------------------------------------------------------- builder

TEST(Experiment, DirectRecordCarriesModeTargetAndSeed) {
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  RunRecord rec = Experiment::of(a)
                      .direct()
                      .inputs(int_inputs(4, 10))
                      .base_options(lockstep(3))
                      .run();

  EXPECT_EQ(rec.mode, ExecutionMode::kDirect);
  EXPECT_EQ(rec.target, a.model);
  EXPECT_EQ(rec.seed, 3u);
}

TEST(Experiment, SimulatedRecordCarriesMode) {
  RunRecord rec = Experiment::of(trivial_kset_algorithm(4, 1))
                      .in(ModelSpec{4, 3, 2})
                      .inputs(int_inputs(4, 20))
                      .base_options(lockstep(5))
                      .run();

  EXPECT_EQ(rec.mode, ExecutionMode::kSimulated);
}

TEST(Experiment, ChainRecordsOneCellPerHop) {
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  const ModelSpec other{5, 3, 2};
  Report rep = Experiment::of(a)
                   .through_chain_to(other)
                   .input_pool(int_inputs(6, 40))
                   .base_options(lockstep(7))
                   .run_all();

  const std::vector<ModelSpec> chain = equivalence_chain(a.model, other);
  ASSERT_EQ(rep.records.size(), chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(rep.records[i].target, chain[i]);
    EXPECT_EQ(rep.records[i].hop_index, static_cast<int>(i));
    // The source-model hop runs natively, all others through the engine.
    EXPECT_EQ(rep.records[i].mode, chain[i] == a.model
                                       ? ExecutionMode::kDirect
                                       : ExecutionMode::kSimulated);
  }
}

TEST(Experiment, TaskVerdictIsRecorded) {
  RunRecord rec = Experiment::of(trivial_kset_algorithm(4, 1))
                      .direct()
                      .with_task(std::make_shared<KSetAgreementTask>(2))
                      .inputs(int_inputs(4))
                      .base_options(lockstep(1))
                      .run();
  EXPECT_EQ(rec.task, "2-set-agreement");
  EXPECT_TRUE(rec.validated);
  EXPECT_TRUE(rec.valid);
  EXPECT_TRUE(rec.ok());
  EXPECT_TRUE(rec.error.empty());
}

TEST(Experiment, ConfigurationErrors) {
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);
  // No mode selected.
  EXPECT_THROW(Experiment::of(a).inputs(int_inputs(4)).cells(),
               ProtocolError);
  // No inputs.
  EXPECT_THROW(Experiment::of(a).direct().cells(), ProtocolError);
  // Exact inputs of the wrong width.
  EXPECT_THROW(
      Experiment::of(a).direct().inputs(int_inputs(3)).cells(),
      ProtocolError);
  // Empty pool.
  EXPECT_THROW(Experiment::of(a).input_pool({}), ProtocolError);
  // Bad seed range.
  EXPECT_THROW(Experiment::of(a).seeds(5, 2), ProtocolError);
  // Chain to a non-equivalent model.
  EXPECT_THROW(Experiment::of(a)
                   .through_chain_to(ModelSpec{4, 3, 1})
                   .input_pool(int_inputs(4))
                   .cells(),
               ProtocolError);
  // run() refuses a multi-cell grid.
  EXPECT_THROW(Experiment::of(a)
                   .direct()
                   .inputs(int_inputs(4))
                   .seeds(1, 4)
                   .run(),
               ProtocolError);
}

TEST(Experiment, IllegalSimulationThrowsOnRunButIsCapturedInBatch) {
  // Source power 0 cannot be simulated in a power-1 target.
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 0);
  Experiment e = Experiment::of(a)
                     .in(ModelSpec{4, 1, 1})
                     .inputs(int_inputs(4))
                     .base_options(lockstep(1));
  EXPECT_THROW(e.run(), ProtocolError);

  Report rep = e.run_all();
  ASSERT_EQ(rep.records.size(), 1u);
  EXPECT_FALSE(rep.records[0].error.empty());
  EXPECT_FALSE(rep.records[0].ok());
  EXPECT_EQ(rep.ok_count(), 0);
  EXPECT_FALSE(rep.all_ok());
}

// ---------------------------------------------------------------- grid

TEST(Batch, GridExpansionOrderIsDeterministic) {
  Experiment e = Experiment::of(trivial_kset_algorithm(4, 1))
                     .direct()
                     .in(ModelSpec{4, 2, 2})
                     .inputs(int_inputs(4))
                     .seeds(1, 3)
                     .mems({MemKind::kPrimitive, MemKind::kAfek})
                     .base_options(lockstep(1));
  const std::vector<ExperimentCell> cells = e.cells();
  // 2 targets x 3 seeds x 2 mems, nested in that order.
  ASSERT_EQ(cells.size(), 12u);
  EXPECT_EQ(cells[0].mode, ExecutionMode::kDirect);
  EXPECT_EQ(cells[0].options.seed, 1u);
  EXPECT_EQ(cells[0].mem, MemKind::kPrimitive);
  EXPECT_EQ(cells[1].mem, MemKind::kAfek);
  EXPECT_EQ(cells[2].options.seed, 2u);
  EXPECT_EQ(cells[6].mode, ExecutionMode::kSimulated);
  EXPECT_EQ(cells[6].target, (ModelSpec{4, 2, 2}));
}

// The acceptance-criteria batch: a >= 32-cell seed x model grid, run in
// parallel, producing one deterministic JSON report.
TEST(Batch, SeedModelGridIsByteDeterministic) {
  auto build = [] {
    return Experiment::of(trivial_kset_algorithm(4, 1))
        .label("determinism-grid")
        .direct()
        .in_each({ModelSpec{4, 2, 2}, ModelSpec{4, 3, 2}, ModelSpec{4, 3, 3}})
        .with_task(std::make_shared<KSetAgreementTask>(2))
        .input_pool(int_inputs(6, 100))
        .seeds(1, 8)
        .base_options(lockstep(1));
  };
  BatchOptions pool4;
  pool4.threads = 4;
  Report first = build().run_all(pool4);
  ASSERT_EQ(first.records.size(), 32u);  // 4 targets x 8 seeds
  EXPECT_TRUE(first.all_ok()) << first.to_json().dump(2);

  // Same grid, different pool width: byte-identical timing-free JSON.
  BatchOptions pool1;
  pool1.threads = 1;
  Report second = build().run_all(pool1);
  EXPECT_EQ(first.to_json(false).dump(), second.to_json(false).dump());

  // And the seed axis is really the per-cell execution seed.
  EXPECT_EQ(first.records[0].seed, 1u);
  EXPECT_EQ(first.records[7].seed, 8u);
}

TEST(Batch, EmptyGridYieldsEmptyReport) {
  Report rep = run_batch({});
  EXPECT_EQ(rep.records.size(), 0u);
  EXPECT_TRUE(rep.all_ok());
  EXPECT_EQ(rep.ok_count(), 0);
}

// ---------------------------------------------------------------- JSON

TEST(RunRecordJson, RoundTrip) {
  RunRecord rec = Experiment::of(group_kset_algorithm(4, 2, 2))
                      .label("roundtrip")
                      .in(ModelSpec{6, 1, 1})
                      .with_task(std::make_shared<KSetAgreementTask>(2))
                      .inputs(int_inputs(6, 30))
                      .base_options(lockstep(11))
                      .run();
  const Json j = rec.to_json();
  const RunRecord back = RunRecord::from_json(Json::parse(j.dump()));
  // Round trip is exact: re-serialization is byte-identical.
  EXPECT_EQ(back.to_json().dump(), j.dump());
  EXPECT_EQ(back.scenario, "roundtrip");
  EXPECT_EQ(back.mode, ExecutionMode::kSimulated);
  EXPECT_EQ(back.source, (ModelSpec{4, 2, 2}));
  EXPECT_EQ(back.target, (ModelSpec{6, 1, 1}));
  EXPECT_EQ(back.seed, 11u);
  EXPECT_EQ(back.decisions, rec.decisions);
  EXPECT_EQ(back.inputs, rec.inputs);
  EXPECT_EQ(back.crashed, rec.crashed);
  EXPECT_EQ(back.steps, rec.steps);
  EXPECT_DOUBLE_EQ(back.wall_ms, rec.wall_ms);
  EXPECT_EQ(back.ok(), rec.ok());
}

TEST(RunRecordJson, TimingCanBeExcluded) {
  RunRecord rec = Experiment::of(trivial_kset_algorithm(3, 1))
                      .direct()
                      .inputs(int_inputs(3))
                      .base_options(lockstep(1))
                      .run();
  EXPECT_NE(rec.to_json(true).find("wall_ms"), nullptr);
  EXPECT_EQ(rec.to_json(false).find("wall_ms"), nullptr);
  // Excluded timing reads back as zero, everything else intact.
  const RunRecord back = RunRecord::from_json(rec.to_json(false));
  EXPECT_DOUBLE_EQ(back.wall_ms, 0.0);
  EXPECT_EQ(back.steps, rec.steps);
}

TEST(ReportJson, RoundTripAndSummary) {
  Report rep = Experiment::of(trivial_kset_algorithm(3, 1))
                   .label("tiny")
                   .direct()
                   .inputs(int_inputs(3))
                   .seeds(1, 2)
                   .base_options(lockstep(1))
                   .run_all();
  ASSERT_EQ(rep.records.size(), 2u);
  const Report back = Report::from_json(Json::parse(rep.to_json().dump()));
  EXPECT_EQ(back.title, "tiny");
  EXPECT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.to_json().dump(), rep.to_json().dump());
  EXPECT_NE(rep.summary().find("2/2"), std::string::npos);
}

TEST(ValueJson, Bijection) {
  const Value v = Value::list(
      {Value::nil(), Value(3), Value("s"), Value::pair(Value(1), Value(2))});
  EXPECT_EQ(value_from_json(value_to_json(v)), v);
  EXPECT_EQ(value_to_json(v).dump(), "[null,3,\"s\",[1,2]]");
}

// ------------------------------------------------------------- registry

TEST(Registry, CoversTheAlgorithmZoo) {
  const std::vector<std::string> names = scenario_names();
  for (const char* expected :
       {"trivial_kset", "group_kset", "single_object_consensus",
        "step_churn", "snapshot_churn", "snapshot_renaming",
        "identity_colored"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(Registry, UnknownNameFailsLoudlyWithCandidates) {
  try {
    find_scenario("no_such_scenario");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_scenario"), std::string::npos);
    EXPECT_NE(what.find("trivial_kset"), std::string::npos);
  }
}

TEST(Registry, NamedExperimentRunsWithCanonicalTask) {
  RunRecord rec = Experiment::named("trivial_kset", ModelSpec{4, 1, 1})
                      .in(ModelSpec{4, 3, 2})
                      .inputs(int_inputs(4, 50))
                      .base_options(lockstep(9))
                      .run();
  EXPECT_EQ(rec.scenario, "trivial_kset");
  EXPECT_EQ(rec.task, "2-set-agreement");
  EXPECT_TRUE(rec.ok()) << rec.to_json().dump(2);
}

TEST(Registry, SnapshotChurnSweepsWidthsAcrossMemBackends) {
  // The register/snapshot hot-path workload: a width-swept Afek (and
  // primitive, for the ablation baseline) write+scan grid through the
  // Experiment API. Direct cells honor the mem axis, so the same named
  // scenario drives the substrate perfbench's explore_churn measures.
  Report rep;
  for (int n : {2, 3}) {
    Report part = Experiment::named("snapshot_churn", ModelSpec{n, 0, 1})
                      .direct()
                      .input_pool(int_inputs(4, 100))
                      .mems({MemKind::kPrimitive, MemKind::kAfek})
                      .base_options(lockstep(11, 3'000'000))
                      .run_all();
    for (RunRecord& r : part.records) rep.records.push_back(std::move(r));
  }
  ASSERT_EQ(rep.records.size(), 4u);
  for (const RunRecord& r : rep.records) {
    EXPECT_TRUE(r.ok()) << r.to_json().dump(2);
    // Every process decides its own input: churn, not agreement.
    for (std::size_t j = 0; j < r.decisions.size(); ++j) {
      ASSERT_TRUE(r.decisions[j].has_value());
      EXPECT_EQ(*r.decisions[j], r.inputs[j]);
    }
  }
  // The Afek substrate pays register-granularity steps for its atomicity:
  // strictly more steps than the one-step primitive at equal width.
  EXPECT_GT(rep.records[1].steps, rep.records[0].steps);
  EXPECT_GT(rep.records[3].steps, rep.records[2].steps);
}

TEST(Registry, RwSourceScenariosRejectXGreaterThanOne) {
  EXPECT_THROW(Experiment::named("trivial_kset", ModelSpec{4, 2, 2}),
               ProtocolError);
}

TEST(Registry, ColoredScenariosRouteThroughColoredEngine) {
  // snapshot_renaming simulated in ASM(4,1,2): the colored_renaming
  // example as an Experiment. Decisions are (claimed j, name) pairs.
  RunRecord rec = Experiment::named("snapshot_renaming", ModelSpec{6, 1, 1})
                      .in(ModelSpec{4, 1, 2})
                      .inputs(int_inputs(4))
                      .base_options(lockstep(7, 3'000'000))
                      .run();
  EXPECT_EQ(rec.mode, ExecutionMode::kColored);
  ASSERT_TRUE(rec.error.empty()) << rec.error;
  EXPECT_FALSE(rec.timed_out);
  std::set<Value> names;
  for (const auto& d : rec.decisions) {
    ASSERT_TRUE(d.has_value());
    names.insert(d->at(1));
  }
  EXPECT_EQ(names.size(), rec.decisions.size());  // pairwise distinct
}

TEST(Batch, CellsAreGridStampedInOrder) {
  Experiment e = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  e.direct().inputs(int_inputs(3)).seeds(1, 2).mems(
      {MemKind::kPrimitive, MemKind::kAfek});
  const std::vector<ExperimentCell> cells = e.cells();
  ASSERT_EQ(cells.size(), 4u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].cell_index, static_cast<int>(i));
  }
  // The stamp flows into the records and their JSON.
  const Report report = run_batch(cells);
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    EXPECT_EQ(report.records[i].cell_index, static_cast<int>(i));
  }
}

TEST(Experiment, SeedListExpandsNonContiguousAxis) {
  Experiment e = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  e.direct().inputs(int_inputs(3)).seed_list({5, 2, 9});
  const std::vector<ExperimentCell> cells = e.cells();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].options.seed, 5u);
  EXPECT_EQ(cells[1].options.seed, 2u);
  EXPECT_EQ(cells[2].options.seed, 9u);
  EXPECT_THROW(e.seed_list({}), ProtocolError);
}

TEST(ReportMerge, ReassemblesGridOrderFromShards) {
  Experiment e = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  e.direct().inputs(int_inputs(3)).seeds(1, 4);
  const Report whole = run_batch(e.cells());
  ASSERT_EQ(whole.records.size(), 4u);

  // Deal the records across two "shards" out of order.
  Report odd, even;
  odd.records = {whole.records[3], whole.records[1]};
  even.title = whole.title;
  even.records = {whole.records[2], whole.records[0]};
  const Report merged = Report::merge({odd, even});
  // odd.title is empty, so the first non-empty title wins.
  EXPECT_EQ(merged.title, whole.title);
  EXPECT_EQ(merged.to_json(false).dump(), whole.to_json(false).dump());
}

TEST(ReportMerge, DropsExactDuplicatesKeepsGridOrder) {
  Experiment e = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  e.direct().inputs(int_inputs(3)).seeds(1, 2);
  const Report whole = run_batch(e.cells());
  RunRecord dup = whole.records[1];
  dup.wall_ms = whole.records[1].wall_ms + 5.0;  // timing may differ
  Report extra;
  extra.records = {dup};
  const Report merged = Report::merge({whole, extra});
  EXPECT_EQ(merged.to_json(false).dump(), whole.to_json(false).dump());
}

TEST(ReportMerge, RejectsConflictingDuplicates) {
  Experiment e = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  e.direct().inputs(int_inputs(3)).seeds(1, 1);
  const Report whole = run_batch(e.cells());
  RunRecord conflict = whole.records[0];
  conflict.steps += 1;  // same cell_index, different payload
  Report extra;
  extra.records = {conflict};
  EXPECT_THROW(Report::merge({whole, extra}), ProtocolError);
}

TEST(ReportMerge, ToleratesUnstampedRecordsByIdentity) {
  // Pre-PR4 baseline reports carry no cell_index; merge keys them by
  // record_identity instead of rejecting (full coverage in
  // explore_test.cc's ReportMerge suite).
  RunRecord r;  // cell_index defaults to -1
  Report part;
  part.records = {r};
  const Report merged = Report::merge({part, part});  // exact duplicate
  ASSERT_EQ(merged.records.size(), 1u);
  EXPECT_EQ(merged.records[0].cell_index, -1);
}

}  // namespace
}  // namespace mpcn
