// Tests: src/dist/wire — the JSON-lines protocol for cross-process
// shards, and the worker loop's robustness contract.
//
// The load-bearing contracts:
//   * CellSpec and every RunRecord field round-trip through the wire
//     framing, so a worker's answer is indistinguishable from an
//     in-process run;
//   * truncated/garbage lines throw WireError at the parse seam and are
//     answered with an error line (never a crash) by the worker loop;
//   * cells that cannot cross the wire (anonymous algorithms, custom
//     tasks) are rejected loudly at from_cell time;
//   * a worker rebuilding a cell from its spec reproduces the
//     coordinator-side run_cell record byte-for-byte (timing excluded).
#include <gtest/gtest.h>

#include <chrono>
#include <limits>

#include "src/common/errors.h"
#include "src/dist/shard.h"
#include "src/dist/wire.h"
#include "src/experiment/experiment.h"
#include "src/experiment/registry.h"
#include "src/explore/explorer.h"
#include "src/tasks/algorithms.h"
#include "src/tasks/task.h"

namespace mpcn {
namespace {

// A grid cell with nothing left at its default value.
ExperimentCell sample_cell() {
  Experiment e = Experiment::named("trivial_kset", ModelSpec{4, 2, 1});
  e.in(ModelSpec{5, 2, 1})
      .inputs_fn([](const ModelSpec& m) {
        std::vector<Value> in;
        for (int i = 0; i < m.n; ++i) in.push_back(Value(10 + i));
        return in;
      })
      .seed(9)
      .mem(MemKind::kAfek)
      .step_limit(123456)
      .wall_limit(std::chrono::milliseconds(7890));
  std::vector<ExperimentCell> cells = e.cells();
  return cells.at(0);
}

TEST(CellSpecJson, RoundTripsEveryField) {
  CellSpec spec = CellSpec::from_cell(sample_cell());
  spec.hop_index = 3;
  spec.cell_index = 7;
  spec.check_legality = false;
  spec.stop_when_all_correct_decided = false;
  spec.crashes = CrashPlan::hazard(0.25, 2, 77, {0, 2});

  const CellSpec back = CellSpec::from_json(spec.to_json());
  EXPECT_EQ(back.scenario, "trivial_kset");
  EXPECT_EQ(back.source, (ModelSpec{4, 2, 1}));
  EXPECT_EQ(back.mode, ExecutionMode::kSimulated);
  EXPECT_EQ(back.target, (ModelSpec{5, 2, 1}));
  EXPECT_EQ(back.hop_index, 3);
  EXPECT_EQ(back.cell_index, 7);
  EXPECT_EQ(back.mem, MemKind::kAfek);
  EXPECT_FALSE(back.check_legality);
  EXPECT_TRUE(back.use_scenario_task);
  EXPECT_EQ(back.seed, 9u);
  EXPECT_EQ(back.step_limit, 123456u);
  EXPECT_EQ(back.wall_limit_ms, 7890);
  EXPECT_FALSE(back.stop_when_all_correct_decided);
  EXPECT_EQ(back.crashes.to_json().dump(), spec.crashes.to_json().dump());
  ASSERT_EQ(back.inputs.size(), 5u);
  EXPECT_EQ(back.inputs[4], Value(14));
  // Second hop: identical dumps (byte determinism of the framing).
  EXPECT_EQ(CellSpec::from_json(back.to_json()).to_json().dump(),
            spec.to_json().dump());
}

TEST(CellSpecJson, IgnoresTheThreadedRuntimeHandoffLabel) {
  // Coordinators of the threaded lock-step runtime sent a wait_strategy
  // label; workers decode the cell without it and never send it back.
  const CellSpec spec = CellSpec::from_cell(sample_cell());
  Json labeled = spec.to_json();
  EXPECT_EQ(labeled.find("wait_strategy"), nullptr);
  labeled.set("wait_strategy", "spin_park");
  EXPECT_EQ(CellSpec::from_json(labeled).to_json().dump(),
            spec.to_json().dump());
}

TEST(CrashPlanJson, AllKindsRoundTrip) {
  const CrashPlan plans[] = {
      CrashPlan::none(),
      CrashPlan::fixed({CrashPoint{1, 5}, CrashPoint{3, 1}}),
      CrashPlan::hazard(0.125, 3, 42, {0, 1, 4}),
      CrashPlan::propose_trap({"sa/0", "sa/1"}, 2, 4,
                              CrashPlan::TrapPoint::kOwnerElected),
  };
  for (const CrashPlan& p : plans) {
    EXPECT_EQ(CrashPlan::from_json(p.to_json()).to_json().dump(),
              p.to_json().dump());
  }
  EXPECT_THROW(CrashPlan::from_json(Json::parse("{\"kind\":\"bogus\"}")),
               std::exception);
}

TEST(WireFraming, MessageLinesRoundTrip) {
  const WireMessage hello = parse_wire_line(hello_line());
  EXPECT_EQ(hello.type, WireMessage::Type::kHello);
  EXPECT_EQ(hello.protocol, kWireProtocolVersion);

  const CellSpec spec = CellSpec::from_cell(sample_cell());
  const WireMessage cell = parse_wire_line(cell_line(12, spec));
  EXPECT_EQ(cell.type, WireMessage::Type::kCell);
  EXPECT_EQ(cell.id, 12);
  ASSERT_TRUE(cell.spec.has_value());
  EXPECT_EQ(cell.spec->to_json().dump(), spec.to_json().dump());

  EXPECT_EQ(parse_wire_line(shutdown_line()).type,
            WireMessage::Type::kShutdown);

  const WireMessage err = parse_wire_line(error_line("went wrong"));
  EXPECT_EQ(err.type, WireMessage::Type::kError);
  EXPECT_EQ(err.message, "went wrong");
}

// The satellite contract: every RunRecord field survives the result
// framing, including the awkward ones (undecided entries, timeouts,
// error text, the task verdict triple).
TEST(WireFraming, ResultRoundTripsEveryRunRecordField) {
  RunRecord rec;
  rec.scenario = "trivial_kset";
  rec.cell_index = 5;
  rec.mode = ExecutionMode::kColored;
  rec.source = ModelSpec{4, 2, 1};
  rec.target = ModelSpec{6, 3, 2};
  rec.hop_index = 2;
  rec.seed = 99;
  rec.mem = MemKind::kAfek;
  rec.inputs = {Value(1), Value("two"), Value(Value::List{Value(3), Value()})};
  rec.decisions = {std::optional<Value>(Value(1)), std::nullopt,
                   std::optional<Value>(Value("w"))};
  rec.crashed = {false, true, false};
  rec.timed_out = true;
  rec.steps = 31337;
  rec.wall_ms = 12.5;
  rec.task = "2-set agreement";
  rec.validated = true;
  rec.valid = false;
  rec.why = "three distinct values decided";
  rec.error = "boom: \"quoted\"\nsecond line";

  const std::string line = result_line(41, rec);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // framing-safe

  const WireMessage msg = parse_wire_line(line);
  ASSERT_EQ(msg.type, WireMessage::Type::kResult);
  EXPECT_EQ(msg.id, 41);
  ASSERT_TRUE(msg.record.has_value());
  const RunRecord& back = *msg.record;
  EXPECT_EQ(back.scenario, rec.scenario);
  EXPECT_EQ(back.cell_index, rec.cell_index);
  EXPECT_EQ(back.mode, rec.mode);
  EXPECT_EQ(back.source, rec.source);
  EXPECT_EQ(back.target, rec.target);
  EXPECT_EQ(back.hop_index, rec.hop_index);
  EXPECT_EQ(back.seed, rec.seed);
  EXPECT_EQ(back.mem, rec.mem);
  EXPECT_EQ(back.inputs, rec.inputs);
  EXPECT_EQ(back.decisions, rec.decisions);
  EXPECT_EQ(back.crashed, rec.crashed);
  EXPECT_EQ(back.timed_out, rec.timed_out);
  EXPECT_EQ(back.steps, rec.steps);
  EXPECT_DOUBLE_EQ(back.wall_ms, rec.wall_ms);
  EXPECT_EQ(back.task, rec.task);
  EXPECT_EQ(back.validated, rec.validated);
  EXPECT_EQ(back.valid, rec.valid);
  EXPECT_EQ(back.why, rec.why);
  EXPECT_EQ(back.error, rec.error);
}

TEST(WireFraming, RangeLinesRoundTrip) {
  const CellSpec spec = CellSpec::from_cell(sample_cell());
  const WireMessage range = parse_wire_line(range_line(3, 40, 8, spec));
  EXPECT_EQ(range.type, WireMessage::Type::kRange);
  EXPECT_EQ(range.id, 3);
  EXPECT_EQ(range.first, 40);
  EXPECT_EQ(range.count, 8);
  ASSERT_TRUE(range.spec.has_value());
  EXPECT_EQ(range.spec->to_json().dump(), spec.to_json().dump());

  RangeResult result;
  result.steps = {16, 0, 31337};
  RunRecord rec;
  rec.scenario = "trivial_kset";
  rec.cell_index = 41;
  rec.error = "boom: \"quoted\"\nsecond line";
  result.records = {rec};
  const std::string line = range_result_line(3, result);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // framing-safe
  const WireMessage back = parse_wire_line(line);
  ASSERT_EQ(back.type, WireMessage::Type::kRangeResult);
  EXPECT_EQ(back.id, 3);
  ASSERT_TRUE(back.range.has_value());
  EXPECT_EQ(back.range->steps, result.steps);
  ASSERT_EQ(back.range->records.size(), 1u);
  EXPECT_EQ(back.range->records[0].to_json().dump(), rec.to_json().dump());

  // A range covers at least one schedule, from a valid index, and its
  // indices fit an int.
  EXPECT_THROW(parse_wire_line(range_line(3, 40, 0, spec)), WireError);
  EXPECT_THROW(parse_wire_line(range_line(3, -1, 8, spec)), WireError);
  EXPECT_THROW(parse_wire_line(range_line(
                   3, std::numeric_limits<int>::max() - 7, 8, spec)),
               WireError);
  EXPECT_EQ(parse_wire_line(range_line(
                                3, std::numeric_limits<int>::max() - 8, 8,
                                spec))
                .count,
            8);
  EXPECT_THROW(parse_wire_line("{\"type\":\"range_result\",\"id\":1}"),
               WireError);
}

TEST(WireFraming, GarbageLinesThrowWireError) {
  EXPECT_THROW(parse_wire_line(""), WireError);
  EXPECT_THROW(parse_wire_line("not json"), WireError);
  EXPECT_THROW(parse_wire_line("{\"type\":\"result\",\"id\":1"), WireError);
  EXPECT_THROW(parse_wire_line("[1,2,3]"), WireError);
  EXPECT_THROW(parse_wire_line("{\"no\":\"type\"}"), WireError);
  EXPECT_THROW(parse_wire_line("{\"type\":42}"), WireError);
  EXPECT_THROW(parse_wire_line("{\"type\":\"bogus\"}"), WireError);
  // Structurally valid JSON, semantically truncated messages.
  EXPECT_THROW(parse_wire_line("{\"type\":\"cell\",\"id\":1}"), WireError);
  EXPECT_THROW(parse_wire_line("{\"type\":\"cell\",\"id\":1,\"spec\":{}}"),
               WireError);
  EXPECT_THROW(parse_wire_line("{\"type\":\"result\",\"id\":1}"), WireError);
}

TEST(CellSpecWire, RejectsNonSerializableCells) {
  // Anonymous algorithm: no registry name to rebuild from.
  Experiment anon = Experiment::of(trivial_kset_algorithm(3, 1));
  anon.direct().inputs({Value(0), Value(1), Value(2)});
  EXPECT_THROW(CellSpec::from_cell(anon.cells().at(0)), ProtocolError);

  // Custom task on a named scenario: not the canonical one.
  Experiment custom = Experiment::named("trivial_kset", ModelSpec{3, 1, 1});
  custom.direct()
      .inputs({Value(0), Value(1), Value(2)})
      .with_task(std::make_shared<KSetAgreementTask>(3));
  EXPECT_THROW(CellSpec::from_cell(custom.cells().at(0)), ProtocolError);
}

TEST(CellSpecWire, RebuiltCellRunsIdentically) {
  const ExperimentCell cell = sample_cell();
  const RunRecord direct = run_cell(cell);
  const RunRecord rebuilt = run_cell(CellSpec::from_cell(cell).to_cell());
  EXPECT_EQ(rebuilt.to_json(false).dump(), direct.to_json(false).dump());
  EXPECT_TRUE(direct.error.empty()) << direct.error;
}

// ----------------------------------------------------------- worker loop

TEST(WorkerLoop, ServesCellsAndSurvivesGarbage) {
  Experiment e = Experiment::named("trivial_kset", ModelSpec{3, 1, 1});
  e.direct().inputs({Value(0), Value(1), Value(2)}).seed(4);
  const ExperimentCell cell = e.cells().at(0);
  CellSpec good = CellSpec::from_cell(cell);
  CellSpec unknown = good;
  unknown.scenario = "no_such_scenario";

  StringLineIO io({
      "complete garbage",
      cell_line(0, unknown),
      cell_line(1, good),
      shutdown_line(),
      cell_line(2, good),  // after shutdown: must not be served
  });
  run_worker_loop(io);

  ASSERT_EQ(io.written().size(), 4u);
  EXPECT_EQ(parse_wire_line(io.written()[0]).type,
            WireMessage::Type::kHello);
  EXPECT_EQ(parse_wire_line(io.written()[1]).type,
            WireMessage::Type::kError);

  // The unknown scenario became a captured per-cell error, not a crash.
  const WireMessage bad = parse_wire_line(io.written()[2]);
  ASSERT_EQ(bad.type, WireMessage::Type::kResult);
  EXPECT_EQ(bad.id, 0);
  ASSERT_TRUE(bad.record.has_value());
  EXPECT_FALSE(bad.record->error.empty());
  EXPECT_EQ(bad.record->scenario, "no_such_scenario");

  const WireMessage ok = parse_wire_line(io.written()[3]);
  ASSERT_EQ(ok.type, WireMessage::Type::kResult);
  EXPECT_EQ(ok.id, 1);
  ASSERT_TRUE(ok.record.has_value());
  EXPECT_TRUE(ok.record->error.empty()) << ok.record->error;
  EXPECT_EQ(ok.record->to_json(false).dump(),
            run_cell(cell).to_json(false).dump());
}

// A range line is answered by one range_result line: every schedule's
// step count, and full records only for schedule 0 and the violating
// schedules — exactly run_schedule_range's output. A spec that cannot
// be rebuilt answers every schedule with an error record.
TEST(WorkerLoop, ServesRangesAsStepCountsPlusViolatingRecords) {
  Experiment e = Experiment::named("racy_register", ModelSpec{2, 0, 1});
  e.direct().inputs({Value(0), Value(1)});
  ExperimentCell base = e.cells().at(0);
  base.check_races = true;
  base.schedule.kind = SchedulePolicyKind::kPct;
  base.schedule.seed = 7;
  base.schedule.pct_horizon = 32;
  const CellSpec spec = CellSpec::from_cell(base);
  CellSpec unknown = spec;
  unknown.scenario = "no_such_scenario";

  StringLineIO io({range_line(0, 0, 200, spec),
                   range_line(1, 5, 2, unknown), shutdown_line()});
  run_worker_loop(io);
  ASSERT_EQ(io.written().size(), 3u);

  const WireMessage ok = parse_wire_line(io.written()[1]);
  ASSERT_EQ(ok.type, WireMessage::Type::kRangeResult);
  EXPECT_EQ(ok.id, 0);
  ASSERT_TRUE(ok.range.has_value());
  const RangeResult expected = run_schedule_range(base, 0, 200);
  EXPECT_EQ(ok.range->steps, expected.steps);
  ASSERT_EQ(ok.range->records.size(), expected.records.size());
  for (std::size_t i = 0; i < expected.records.size(); ++i) {
    EXPECT_EQ(ok.range->records[i].to_json(false).dump(),
              expected.records[i].to_json(false).dump());
  }
  // Schedule 0 always ships; so does at least one torn-write race; the
  // clean schedules ship only their step counts.
  ASSERT_GE(expected.records.size(), 2u);
  EXPECT_EQ(expected.records.front().cell_index, 0);
  EXPECT_TRUE(expected.records.back().raced());
  EXPECT_LT(expected.records.size(), expected.steps.size());

  const WireMessage bad = parse_wire_line(io.written()[2]);
  ASSERT_EQ(bad.type, WireMessage::Type::kRangeResult);
  ASSERT_TRUE(bad.range.has_value());
  EXPECT_EQ(bad.range->steps, (std::vector<std::uint64_t>{0, 0}));
  ASSERT_EQ(bad.range->records.size(), 2u);
  for (int k = 0; k < 2; ++k) {
    const RunRecord& rec = bad.range->records[static_cast<std::size_t>(k)];
    EXPECT_EQ(rec.cell_index, 5 + k);
    EXPECT_FALSE(rec.error.empty());
  }
}

TEST(WorkerLoop, MaxCellsInjectsACrashBeforeReplying) {
  Experiment e = Experiment::named("trivial_kset", ModelSpec{3, 1, 1});
  e.direct().inputs({Value(0), Value(1), Value(2)});
  const CellSpec spec = CellSpec::from_cell(e.cells().at(0));
  StringLineIO io({cell_line(0, spec), cell_line(1, spec)});
  WorkerOptions options;
  options.max_cells = 1;
  run_worker_loop(io, options);
  // Hello only: the worker died on receiving its first cell, unanswered.
  ASSERT_EQ(io.written().size(), 1u);
  EXPECT_EQ(parse_wire_line(io.written()[0]).type,
            WireMessage::Type::kHello);
}

// ------------------------------------------------------------ telemetry

TEST(WireTelemetry, MetricsLineRoundTrips) {
  MetricsSnapshot snap;
  snap.counters["explore.schedules"] = 42;
  snap.counters["arena.bytes"] = 7;

  const std::string line = metrics_line(snap);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // framing-safe
  const WireMessage msg = parse_wire_line(line);
  ASSERT_EQ(msg.type, WireMessage::Type::kMetrics);
  ASSERT_TRUE(msg.snapshot.has_value());
  EXPECT_EQ(msg.snapshot->to_json().dump(), snap.to_json().dump());
}

TEST(WireTelemetry, ShutdownMetricsFlagRoundTrips) {
  EXPECT_FALSE(parse_wire_line(shutdown_line()).want_metrics);
  EXPECT_FALSE(parse_wire_line(shutdown_line(false)).want_metrics);
  EXPECT_TRUE(parse_wire_line(shutdown_line(true)).want_metrics);
  // The telemetry extension must not change plain shutdown bytes: older
  // tests (and mixed-version pools) rely on the original framing.
  EXPECT_EQ(shutdown_line(false), shutdown_line());
}

TEST(WireTelemetry, WorkerShipsSnapshotOnRequest) {
  Experiment e = Experiment::named("trivial_kset", ModelSpec{3, 1, 1});
  e.direct().inputs({Value(0), Value(1), Value(2)});
  const CellSpec spec = CellSpec::from_cell(e.cells().at(0));
  StringLineIO io({cell_line(0, spec), shutdown_line(true)});
  run_worker_loop(io);

  // hello, result, metrics — exactly one extra line vs plain shutdown.
  ASSERT_EQ(io.written().size(), 3u);
  const WireMessage last = parse_wire_line(io.written()[2]);
  ASSERT_EQ(last.type, WireMessage::Type::kMetrics);
  ASSERT_TRUE(last.snapshot.has_value());
  const auto it = last.snapshot->counters.find("worker.cells_served");
  ASSERT_NE(it, last.snapshot->counters.end());
  EXPECT_GE(it->second, 1u);
}

TEST(WireTelemetry, TelemetryLineRoundTrips) {
  // Worker -> coordinator: seq + worker clock + metrics delta.
  MetricsSnapshot delta;
  delta.counters["worker.cells_served"] = 3;
  const std::string line =
      telemetry_line(7, 123456789, delta.to_json().dump());
  EXPECT_EQ(line.find('\n'), std::string::npos);  // framing-safe
  const WireMessage rep = parse_wire_line(line);
  ASSERT_EQ(rep.type, WireMessage::Type::kTelemetry);
  EXPECT_EQ(rep.telemetry_seq, 7);
  EXPECT_EQ(rep.worker_now_us, 123456789);
  ASSERT_TRUE(rep.snapshot.has_value());
  EXPECT_EQ(rep.snapshot->to_json().dump(), delta.to_json().dump());
}

TEST(WireTelemetry, TraceLineAndShutdownTraceFlagRoundTrip) {
  Json doc = Json::object();
  doc.set("traceEvents", Json::array());
  doc.set("displayTimeUnit", "ms");
  const std::string line = trace_line(doc);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const WireMessage msg = parse_wire_line(line);
  ASSERT_EQ(msg.type, WireMessage::Type::kTrace);
  ASSERT_TRUE(msg.trace_doc.has_value());
  EXPECT_EQ(msg.trace_doc->dump(), doc.dump());

  EXPECT_FALSE(parse_wire_line(shutdown_line(true)).want_trace);
  const WireMessage both = parse_wire_line(shutdown_line(true, true));
  EXPECT_TRUE(both.want_metrics);
  EXPECT_TRUE(both.want_trace);
  // Strictly additive: plain and metrics-only shutdown bytes unchanged.
  EXPECT_EQ(shutdown_line(false, false), shutdown_line());
}

TEST(WireTelemetry, ArmedWorkerStreamsHeartbeats) {
  Experiment e = Experiment::named("trivial_kset", ModelSpec{3, 1, 1});
  e.direct().inputs({Value(0), Value(1), Value(2)});
  const CellSpec spec = CellSpec::from_cell(e.cells().at(0));
  // A huge interval: only the arm-beat and the per-cell beat fire, so
  // the line count is deterministic — no timer races in the pin.
  StringLineIO io({cell_line(0, spec), shutdown_line()});
  WorkerOptions options;
  options.heartbeat = std::chrono::milliseconds(60'000);
  run_worker_loop(io, options);

  // hello, arm-beat (seq 0), result, post-cell beat (seq 1).
  ASSERT_EQ(io.written().size(), 4u);
  const WireMessage arm_beat = parse_wire_line(io.written()[1]);
  ASSERT_EQ(arm_beat.type, WireMessage::Type::kTelemetry);
  EXPECT_EQ(arm_beat.telemetry_seq, 0);
  EXPECT_EQ(parse_wire_line(io.written()[2]).type,
            WireMessage::Type::kResult);
  const WireMessage cell_beat = parse_wire_line(io.written()[3]);
  ASSERT_EQ(cell_beat.type, WireMessage::Type::kTelemetry);
  EXPECT_EQ(cell_beat.telemetry_seq, 1);
  EXPECT_GE(cell_beat.worker_now_us, arm_beat.worker_now_us);
  // The post-cell delta carries the work that happened since arming.
  ASSERT_TRUE(cell_beat.snapshot.has_value());
  const auto it = cell_beat.snapshot->counters.find("worker.cells_served");
  ASSERT_NE(it, cell_beat.snapshot->counters.end());
  EXPECT_GE(it->second, 1u);
}

TEST(WireTelemetry, GarbageErrorsCarryAnExcerpt) {
  try {
    parse_wire_line("this is not json \x01");
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("this is not json"), std::string::npos) << what;
    EXPECT_NE(what.find("\\x01"), std::string::npos) << what;  // escaped
  }
  // Long garbage is truncated but sized, so logs stay bounded while
  // still saying how much junk arrived.
  try {
    parse_wire_line(std::string(500, 'a'));
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    const std::string what = e.what();
    EXPECT_LT(what.size(), 400u) << what;
    EXPECT_NE(what.find("..."), std::string::npos) << what;
    EXPECT_NE(what.find("(500 bytes)"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mpcn
