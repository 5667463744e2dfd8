// Tests: src/dist/shard — the cross-process shard coordinator.
//
// The load-bearing contracts:
//   * a sharded run's merged Report is byte-identical (timing excluded)
//     to the in-process run_batch on the same grid — the paper-scale
//     equivalence sweeps must not depend on WHERE cells ran;
//   * a worker that dies with a cell in flight gets its cells requeued
//     onto survivors, and the merged Report is still identical;
//   * misbehaving workers (garbage emitters, hangs) degrade the run to
//     in-process execution instead of losing cells;
//   * a sharded schedule search, shipped as ranges, reports byte for
//     byte what the serial search reports — through worker deaths,
//     freezes and a drained pool — and stops dispatching once the
//     max_violations cutoff is known.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "src/common/errors.h"
#include "src/dist/shard.h"
#include "src/experiment/batch_runner.h"
#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"
#include "src/obs/metrics.h"
#include "src/tasks/algorithms.h"

namespace mpcn {
namespace {

// A 6-cell seeded grid: deterministic, a few hundred steps per cell.
Experiment small_grid() {
  Experiment e = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  e.direct()
      .inputs({Value(10), Value(11), Value(12)})
      .seeds(1, 6);
  return e;
}

std::string in_process_dump(const Experiment& e) {
  return run_batch(e.cells()).to_json(false).dump();
}

TEST(Shard, ForkModeMatchesInProcessByteForByte) {
  const Experiment e = small_grid();
  ShardOptions options;
  options.shards = 2;
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
  EXPECT_TRUE(sharded.all_ok());
}

TEST(Shard, SingleWorkerAndMoreWorkersThanCells) {
  const Experiment e = small_grid();
  const std::string expected = in_process_dump(e);
  for (int shards : {1, 16}) {
    ShardOptions options;
    options.shards = shards;
    EXPECT_EQ(run_sharded(e.cells(), options).to_json(false).dump(),
              expected)
        << "shards = " << shards;
  }
}

// The kill-one-worker contract: worker 0 dies upon RECEIVING its second
// cell (first one answered, second one lost in flight). The coordinator
// must requeue the lost cell onto worker 1 and still produce the exact
// in-process report.
TEST(Shard, DeadWorkerCellsAreRequeuedOntoSurvivors) {
  const Experiment e = small_grid();
  ShardOptions options;
  options.shards = 2;
  options.worker_max_cells = {2, 0};
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
}

TEST(Shard, WorkerDyingOnFirstCellStillCompletes) {
  const Experiment e = small_grid();
  ShardOptions options;
  options.shards = 3;
  options.worker_max_cells = {1, 1, 0};  // two workers never answer at all
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
}

TEST(Shard, AllWorkersDeadFallsBackInProcess) {
  const Experiment e = small_grid();
  ShardOptions options;
  options.shards = 2;
  options.worker_max_cells = {1, 1};  // nobody survives
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
}

// A worker that echoes every line back, as `cat` would.
void echo_loop(LineIO& io, const WorkerOptions& /*options*/) {
  std::string line;
  while (io.read_line(line) && io.write_line(line)) {
  }
}

// A worker that echoes our own cell lines back is a protocol violator:
// it must be written off and the run must degrade, not hang or corrupt
// the report.
TEST(Shard, GarbageEmittingWorkerIsWrittenOff) {
  const Experiment e = small_grid();
  ShardOptions options;
  options.shards = 2;
  options.worker_loop = echo_loop;
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
}

// A hung worker (it freezes on receiving its first cell, and every
// respawn does the same) trips the watchdog once its cell overruns
// wall_limit + grace; its cell is requeued. No telemetry is armed, so
// only the watchdog can fire. With no survivors the run degrades to
// in-process execution.
TEST(Shard, HungWorkerTripsWatchdog) {
  Experiment e = small_grid();
  // The grid's cells finish in milliseconds; a tight wall_limit keeps
  // the watchdog deadline (wall_limit + grace) test-sized.
  e.wall_limit(std::chrono::milliseconds(200));
  ShardOptions options;
  options.shards = 2;
  options.worker_stop_after = {1, 1};
  options.watchdog_grace = std::chrono::milliseconds(250);
  std::vector<WorkerHealth> health;
  options.health = &health;
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
  ASSERT_EQ(health.size(), 2u);
  for (const WorkerHealth& h : health) {
    EXPECT_EQ(h.write_off_reason, "cell timeout") << "slot " << h.slot;
  }
}

// Churn hardening: a crash-looping worker slot is respawned (with its
// fault-injection quota inherited) and keeps serving cells. The pin:
// with the in-process fallback DISABLED, only respawned workers can
// finish the grid — success proves the respawn path served every cell.
TEST(Shard, RespawnedSlotServesTheWholeGrid) {
  const Experiment e = small_grid();  // 6 cells
  ShardOptions options;
  options.shards = 1;
  // The worker dies upon RECEIVING its second cell: one cell per life.
  options.worker_max_cells = {2};
  options.max_respawns = 5;  // initial + 5 respawns = 6 lives = 6 cells
  options.respawn_backoff = std::chrono::milliseconds(1);
  options.fallback_in_process = false;
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
}

// A drained pool (everyone dead, respawn budgets spent) with the
// fallback disabled fails cleanly instead of silently degrading.
TEST(Shard, DrainedPoolWithFallbackDisabledThrows) {
  const Experiment e = small_grid();
  ShardOptions options;
  options.shards = 2;
  options.worker_max_cells = {1, 1};  // nobody ever answers
  options.max_respawns = 1;
  options.respawn_backoff = std::chrono::milliseconds(1);
  options.fallback_in_process = false;
  EXPECT_THROW(run_sharded(e.cells(), options), ProtocolError);
}

// max_respawns = 0 restores the pre-respawn behavior: written-off
// workers stay dead and the run degrades straight to in-process.
TEST(Shard, RespawnDisabledFallsBackInProcess) {
  const Experiment e = small_grid();
  ShardOptions options;
  options.shards = 2;
  options.worker_max_cells = {1, 1};
  options.max_respawns = 0;
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
}

TEST(Shard, EmptyGridYieldsEmptyReport) {
  ShardOptions options;
  options.shards = 2;
  const Report r = run_sharded({}, options);
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.title, "batch");
}

TEST(Shard, RejectsAnonymousCellsUpFront) {
  Experiment anon = Experiment::of(trivial_kset_algorithm(3, 1));
  anon.direct().inputs({Value(0), Value(1), Value(2)});
  ShardOptions options;
  options.shards = 2;
  EXPECT_THROW(run_sharded(anon.cells(), options), ProtocolError);
}

TEST(Shard, RejectsZeroShards) {
  ShardOptions options;
  options.shards = 0;
  EXPECT_THROW(run_sharded({}, options), ProtocolError);
}

// The run_batch backend switch: shards > 0 routes through the
// coordinator, and Experiment::run_all picks it up transparently.
TEST(Shard, RunBatchShardBackendMatchesInProcess) {
  const Experiment e = small_grid();
  BatchOptions batch;
  batch.shards = 2;
  const Report sharded = e.run_all(batch);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
}

// Sharding composes with the grid axes: a mem x seed grid through the
// simulation engine, distributed, still matches in-process bytes.
TEST(Shard, SimulatedMemGridMatchesInProcess) {
  Experiment e = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  e.direct()
      .inputs({Value(0), Value(1), Value(2)})
      .seeds(1, 2)
      .mems({MemKind::kPrimitive, MemKind::kAfek});
  ShardOptions options;
  options.shards = 3;
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
  EXPECT_EQ(sharded.records.size(), 4u);
}

// ---------------------------------------------- sharded schedule search

std::vector<Value> index_inputs(const ModelSpec& m) {
  std::vector<Value> in;
  for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
  return in;
}

ExperimentCell racy_cell(MemKind mem = MemKind::kPrimitive) {
  Experiment e = Experiment::named("racy_register", ModelSpec{2, 0, 1});
  e.direct().seed(1).mem(mem).inputs_fn(index_inputs);
  return e.cells().front();
}

ExploreOptions racy_search(int budget, int max_violations) {
  ExploreOptions o;
  o.policy = ExplorePolicy::kPct;
  o.seed = 7;
  o.budget = budget;
  o.max_violations = max_violations;
  o.check_races = true;
  return o;
}

// What a search reports: the --json document plus the --record trace.
std::string report(const ExploreResult& r) {
  return r.to_json().dump() + "\n" + r.first_trace.to_json().dump();
}

std::uint64_t counter(const char* name) {
  return metrics_registry().counter(name).value();
}

// The shard counts a sharded search must match the serial one at.
constexpr int kSearchShards[] = {1, 2, 3};

TEST(ShardSearch, MatchesSerialAcrossBudgetsCapsAndShards) {
  const ExperimentCell cell = racy_cell();
  // Seed 1 is the CLI's default `--seed`, at which it also builds this
  // cell. Budget 1 and 12 sit below 8 ranges per worker (ranges of one
  // schedule, budget 1 below the shard count); 997 makes uneven ranges
  // of 42 and a collect-all search with many violation records.
  for (std::uint64_t seed : {7, 1}) {
    for (int budget : {1, 12, 200, 997}) {
      for (int cap : {0, 1, 3}) {
        ExploreOptions o = racy_search(budget, cap);
        o.seed = seed;
        const ExploreResult serial = explore(cell, o);
        if (budget == 997 && cap == 0) {
          ASSERT_GE(serial.violations.size(), 3u);
        }
        for (int shards : kSearchShards) {
          o.shards = shards;
          EXPECT_EQ(report(explore(cell, o)), report(serial))
              << "seed " << seed << ", budget " << budget
              << ", max_violations " << cap << ", shards " << shards;
        }
      }
    }
  }
  // The merge's other inputs, at two budgets: seeded-random schedules,
  // Afek snapshot memory, and searches without the race oracle.
  struct Variant {
    ExplorePolicy policy;
    MemKind mem;
    bool check_races;
  };
  for (const Variant& v :
       {Variant{ExplorePolicy::kSeededRandom, MemKind::kPrimitive, true},
        Variant{ExplorePolicy::kPct, MemKind::kAfek, true},
        Variant{ExplorePolicy::kPct, MemKind::kPrimitive, false},
        Variant{ExplorePolicy::kSeededRandom, MemKind::kAfek, false}}) {
    const ExperimentCell variant_cell = racy_cell(v.mem);
    for (int budget : {12, 200}) {
      for (int cap : {0, 1}) {
        ExploreOptions o = racy_search(budget, cap);
        o.policy = v.policy;
        o.check_races = v.check_races;
        const ExploreResult serial = explore(variant_cell, o);
        for (int shards : kSearchShards) {
          o.shards = shards;
          EXPECT_EQ(report(explore(variant_cell, o)), report(serial))
              << to_string(v.policy) << ", mem " << to_string(v.mem)
              << ", races " << v.check_races << ", budget " << budget
              << ", max_violations " << cap << ", shards " << shards;
        }
      }
    }
  }
}

TEST(ShardSearch, CrashProductSearchMatchesSerial) {
  // `mpcn explore --seed 7` runs the cell at seed 7 as well.
  for (std::uint64_t cell_seed : {1, 7}) {
    Experiment e =
        Experiment::named("safe_agreement_window", ModelSpec{2, 1, 1});
    e.direct().seed(cell_seed).inputs_fn(index_inputs).step_limit(400);
    const ExperimentCell cell = e.cells().front();
    ExploreOptions o;
    o.policy = ExplorePolicy::kSeededRandom;
    o.seed = 7;
    o.budget = 200;
    o.crash_budget = 1;
    o.crash_rate = 0.2;
    const ExploreResult serial = explore(cell, o);
    ASSERT_TRUE(serial.crash_found());
    for (int shards : kSearchShards) {
      o.shards = shards;
      EXPECT_EQ(report(explore(cell, o)), report(serial))
          << "cell seed " << cell_seed << ", shards " << shards;
    }
  }
}

// The default max_violations = 1 stops the serial search at its first
// violation (schedule 84 here, inside the first range of 209); the
// sharded one dispatches no range past it instead of the whole budget.
TEST(ShardSearch, EarlyStopLeavesMostRangesUndispatched) {
  const ExperimentCell cell = racy_cell();
  ExploreOptions o = racy_search(5000, 1);
  o.seed = 1;
  const std::string expected = report(explore(cell, o));
  o.shards = 3;
  const std::uint64_t dispatched = counter("shard.cells_dispatched");
  EXPECT_EQ(report(explore(cell, o)), expected);
  EXPECT_LT(counter("shard.cells_dispatched") - dispatched, 1000u);
}

// Slot 0 freezes (SIGSTOP) on receiving its first range, before serving
// it: only heartbeat age can notice. The range is requeued whole —
// counted in schedules — and the report is still the serial one.
TEST(ShardSearch, FrozenSlotIsWrittenOffAndItsRangeRerun) {
  const ExperimentCell cell = racy_cell();
  ExploreOptions o = racy_search(997, 0);
  const std::string expected = report(explore(cell, o));
  o.shards = 3;
  o.worker_stop_after = {1, 0, 0};
  o.telemetry_interval = std::chrono::milliseconds(25);
  o.heartbeat_stale_after = std::chrono::milliseconds(250);
  std::vector<WorkerHealth> health;
  o.health = &health;
  const std::uint64_t requeued = counter("shard.cells_requeued");
  EXPECT_EQ(report(explore(cell, o)), expected);
  ASSERT_EQ(health.size(), 3u);
  EXPECT_TRUE(health[0].written_off);
  EXPECT_EQ(health[0].write_off_reason, "heartbeat stale");
  // 997 schedules make 23 ranges of 42 and one of 31.
  EXPECT_GE(counter("shard.cells_requeued") - requeued, 31u);
}

// Pool level: schedules [0, budget) gathered from every range reply, in
// the form of one range covering them all.
RangeResult gather(const ExperimentCell& base, int budget,
                   const ShardOptions& options) {
  RangeResult all;
  all.steps.assign(static_cast<std::size_t>(budget), 0);
  run_sharded_search(
      base, budget, options, [](int) { return true; },
      [&](int first, RangeResult&& r) {
        std::copy(r.steps.begin(), r.steps.end(), all.steps.begin() + first);
        for (RunRecord& rec : r.records) all.records.push_back(std::move(rec));
      });
  std::sort(all.records.begin(), all.records.end(),
            [](const RunRecord& a, const RunRecord& b) {
              return a.cell_index < b.cell_index;
            });
  return all;
}

std::string range_dump(const RangeResult& r) {
  std::string out;
  for (std::uint64_t s : r.steps) out += std::to_string(s) + ",";
  for (const RunRecord& rec : r.records) out += rec.to_json(false).dump();
  return out;
}

// A PCT search's cell carrying schedule 0's spec; 240 schedules over 3
// shards make 24 ranges of 10.
ExperimentCell search_base() {
  ExperimentCell base = racy_cell();
  base.check_races = true;
  base.schedule.kind = SchedulePolicyKind::kPct;
  base.schedule.seed = 7;
  base.schedule.pct_horizon = 32;
  return base;
}
constexpr int kSearchBudget = 240;
constexpr std::uint64_t kRange = 10;

TEST(ShardSearch, RangeLostWithItsWorkerIsRequeuedAsSchedules) {
  const ExperimentCell base = search_base();
  ShardOptions options;
  options.shards = 3;
  options.worker_max_cells = {1, 0, 0};  // slot 0 dies holding range 0
  options.max_respawns = 0;
  const std::uint64_t requeued = counter("shard.cells_requeued");
  const std::uint64_t dispatched = counter("shard.cells_dispatched");
  const std::uint64_t fallback = counter("shard.fallback_cells");
  EXPECT_EQ(range_dump(gather(base, kSearchBudget, options)),
            range_dump(run_schedule_range(base, 0, kSearchBudget)));
  EXPECT_EQ(counter("shard.cells_requeued") - requeued, kRange);
  EXPECT_EQ(counter("shard.cells_dispatched") - dispatched,
            kSearchBudget + kRange);
  EXPECT_EQ(counter("shard.fallback_cells") - fallback, 0u);
}

TEST(ShardSearch, DrainedPoolRunsTheRangesInProcess) {
  const ExperimentCell base = search_base();
  ShardOptions options;
  options.shards = 3;
  options.worker_max_cells = {1, 1, 1};  // every worker dies at once
  options.max_respawns = 0;
  const std::uint64_t requeued = counter("shard.cells_requeued");
  const std::uint64_t fallback = counter("shard.fallback_cells");
  EXPECT_EQ(range_dump(gather(base, kSearchBudget, options)),
            range_dump(run_schedule_range(base, 0, kSearchBudget)));
  EXPECT_EQ(counter("shard.cells_requeued") - requeued, 3 * kRange);
  EXPECT_EQ(counter("shard.fallback_cells") - fallback,
            static_cast<std::uint64_t>(kSearchBudget));
}

// The same drained pool behind explore(), through workers that each die
// on their first range, respawns included: the in-process fallback
// finishes the search and the report is serial.
TEST(ShardSearch, WorkersDyingOnEveryRangeStillReportSerially) {
  const ExperimentCell cell = racy_cell();
  ExploreOptions o = racy_search(240, 0);
  const std::string expected = report(explore(cell, o));
  o.shards = 3;
  o.worker_max_cells = {1, 1, 1};
  const std::uint64_t fallback = counter("shard.fallback_cells");
  EXPECT_EQ(report(explore(cell, o)), expected);
  EXPECT_EQ(counter("shard.fallback_cells") - fallback, 240u);
}

}  // namespace
}  // namespace mpcn
