// Tests: the cross-process telemetry layer — streaming heartbeats, the
// worker health table, heartbeat-staleness write-off, the merged
// multi-process trace, the events flight recorder, and delta_since.
//
// The load-bearing contracts:
//   * streaming telemetry is SIDECAR-ONLY: a sharded run with heartbeats
//     armed produces a Report byte-identical (timing excluded) to the
//     in-process run — the headline invariant, re-pinned here with the
//     streaming path on;
//   * a worker that freezes holding a cell (SIGSTOP, its watchdog
//     deadline far off) is written off by heartbeat age — the silence
//     the per-cell watchdog cannot see in time — and its cell is
//     requeued;
//   * a live worker beats from its own loop, inside a long run and
//     while idle, so staleness never writes it off;
//   * merge_trace_docs is deterministic, re-stamps pids, aligns clocks
//     and keeps events sorted, so one --trace file loads in Perfetto;
//   * the events log round-trips: every line parses back with its type,
//     fields and a monotonic shared-clock timestamp;
//   * MetricsSnapshot::delta_since saturates, drops zero entries, and
//     folds back to totals via merge() — the heartbeat payload — and a
//     slot's folded heartbeats equal its worker's shutdown snapshot.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/dist/shard.h"
#include "src/experiment/batch_runner.h"
#include "src/experiment/experiment.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/spans.h"

namespace mpcn {
namespace {

// A seeded grid of `cells` cells: deterministic, a few hundred steps per
// cell.
Experiment small_grid(int cells = 6) {
  Experiment e = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  e.direct()
      .inputs({Value(10), Value(11), Value(12)})
      .seeds(1, cells);
  return e;
}

std::string in_process_dump(const Experiment& e) {
  return run_batch(e.cells()).to_json(false).dump();
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& stem) {
    path = testing::TempDir() + stem;
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// ------------------------------------------------- streaming telemetry

TEST(Telemetry, StreamingHeartbeatsKeepReportByteIdentical) {
  const Experiment e = small_grid();
  ShardOptions options;
  options.shards = 2;
  options.telemetry_interval = std::chrono::milliseconds(10);
  std::vector<WorkerHealth> health;
  options.health = &health;
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
  ASSERT_EQ(health.size(), 2u);
  std::int64_t served = 0;
  for (const WorkerHealth& h : health) {
    // arm() beats immediately, so every worker heartbeats at least once
    // even before its first cell lands.
    EXPECT_GE(h.heartbeats, 1) << "slot " << h.slot;
    EXPECT_GE(h.last_seq, 0) << "slot " << h.slot;
    EXPECT_FALSE(h.written_off) << "slot " << h.slot;
    served += h.cells_served;
    // Folded deltas reconstruct the worker's running totals: the cells
    // it served must show up in its telemetry, not just its health row.
    const auto it = h.telemetry.counters.find("worker.cells_served");
    ASSERT_NE(it, h.telemetry.counters.end()) << "slot " << h.slot;
    EXPECT_EQ(static_cast<std::int64_t>(it->second), h.cells_served)
        << "slot " << h.slot;
  }
  EXPECT_EQ(served, 6);
}

// Folded heartbeats rebuild each worker's counters, every one of them:
// at shutdown a slot's folded telemetry equals the non-zero counters of
// the snapshot its worker ships, key for key. The worker diffs them with
// delta_json, the coordinator folds them with merge.
TEST(Telemetry, HeartbeatsRebuildEachWorkersCounters) {
  const Experiment e = small_grid();
  ShardOptions options;
  options.shards = 2;
  options.telemetry_interval = std::chrono::milliseconds(10);
  std::vector<WorkerHealth> health;
  std::vector<MetricsSnapshot> worker_metrics;
  options.health = &health;
  options.worker_metrics = &worker_metrics;
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
  ASSERT_EQ(health.size(), 2u);
  // Both slots live to the shutdown, so the harvest holds one snapshot
  // per slot, in slot order.
  ASSERT_EQ(worker_metrics.size(), 2u);
  for (std::size_t i = 0; i < health.size(); ++i) {
    ASSERT_FALSE(health[i].written_off) << "slot " << i;
    std::map<std::string, std::uint64_t> moved;
    for (const auto& [name, v] : worker_metrics[i].counters) {
      if (v != 0) moved[name] = v;
    }
    EXPECT_GE(moved.size(), 2u) << "slot " << i;
    EXPECT_EQ(health[i].telemetry.counters, moved) << "slot " << i;
  }
}

// The frozen worker: worker 0 raises SIGSTOP on receiving its first cell,
// which every worker gets at the start, before serving it. The watchdog
// (which covers in-cell overruns) is parked far away; only heartbeat age
// can notice. The write-off must name staleness, requeue the frozen
// slot's cell, and leave the report untouched.
TEST(Telemetry, StoppedWorkerIsWrittenOffByHeartbeatAge) {
  constexpr int kCells = 6;
  const Experiment e = small_grid(kCells);
  ShardOptions options;
  options.shards = 2;
  options.worker_stop_after = {1, 0};
  options.telemetry_interval = std::chrono::milliseconds(25);
  options.heartbeat_stale_after = std::chrono::milliseconds(250);
  options.watchdog_grace = std::chrono::milliseconds(60'000);
  options.max_respawns = 0;
  std::vector<WorkerHealth> health;
  options.health = &health;
  const auto start = std::chrono::steady_clock::now();
  const Report sharded = run_sharded(e.cells(), options);
  const auto wall = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
  ASSERT_EQ(health.size(), 2u);
  EXPECT_TRUE(health[0].written_off);
  EXPECT_EQ(health[0].write_off_reason, "heartbeat stale");
  EXPECT_EQ(health[0].cells_served, 0);
  EXPECT_FALSE(health[1].written_off);
  EXPECT_EQ(health[1].cells_served, kCells);
  // Staleness, not the 60 s watchdog, must have fired the write-off.
  EXPECT_LT(wall, std::chrono::seconds(30));
}

// Both beat sources of a worker's own loop: a 2-shard grid of one short
// cell and one stall that runs several times heartbeat_stale_after (seed
// 2: the 0-resilient trivial k-set algorithm with p0 crashed at its
// first step, so the others wait for it until the step limit). The busy
// worker must beat from inside the run and the idle one from its wait
// for the next line, or staleness writes one of them off.
TEST(Telemetry, BusyAndIdleWorkersBeatFromTheirOwnLoops) {
  Experiment e = Experiment::named("trivial_kset", ModelSpec{4, 0, 1});
  e.direct()
      .inputs({Value(10), Value(11), Value(12), Value(13)})
      .seeds(1, 2)
      .crashes([](const ModelSpec&, std::uint64_t seed) {
        return seed == 1 ? CrashPlan::none()
                         : CrashPlan::fixed({CrashPoint{0, 1}});
      })
      .step_limit(4'000'000)
      .check_legality(false);
  ShardOptions options;
  options.shards = 2;
  options.telemetry_interval = std::chrono::milliseconds(10);
  options.heartbeat_stale_after = std::chrono::milliseconds(150);
  options.max_respawns = 0;
  std::vector<WorkerHealth> health;
  options.health = &health;
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
  ASSERT_EQ(sharded.records.size(), 2u);
  EXPECT_FALSE(sharded.records[0].timed_out);
  EXPECT_TRUE(sharded.records[1].timed_out);
  // The stall must outlast staleness, or a silent worker could go
  // unnoticed (it takes about four times as long on a 4-vCPU Xeon).
  EXPECT_GT(sharded.records[1].wall_ms,
            2.0 * options.heartbeat_stale_after.count());
  ASSERT_EQ(health.size(), 2u);
  for (const WorkerHealth& h : health) {
    EXPECT_FALSE(h.written_off) << "slot " << h.slot << ": "
                                << h.write_off_reason;
    EXPECT_EQ(h.cells_served, 1) << "slot " << h.slot;
    // More than the arm beat and the after-job beat.
    EXPECT_GE(h.heartbeats, 3) << "slot " << h.slot;
  }
}

// ------------------------------------------------------- trace merging

TEST(Telemetry, ShardedTraceMergesPidTaggedAndSorted) {
  reset_trace();
  set_tracing_enabled(true);
  const Experiment e = small_grid();
  ShardOptions options;
  options.shards = 2;
  std::vector<ProcessTrace> worker_traces;
  options.worker_traces = &worker_traces;
  const Report sharded = run_sharded(e.cells(), options);
  EXPECT_EQ(sharded.to_json(false).dump(), in_process_dump(e));
  set_tracing_enabled(false);
  ASSERT_EQ(worker_traces.size(), 2u);

  std::vector<ProcessTrace> procs;
  ProcessTrace coord;
  coord.pid = 1;
  coord.name = "coordinator";
  coord.doc = dump_trace_json();
  procs.push_back(coord);
  for (const ProcessTrace& w : worker_traces) procs.push_back(w);

  const Json merged = merge_trace_docs(procs);
  // Deterministic: merging the same rings twice is byte-identical.
  EXPECT_EQ(merged.dump(), merge_trace_docs(procs).dump());

  const Json& events = merged.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  std::set<std::int64_t> pids;
  std::set<std::string> names;
  std::int64_t last_ts = -1;
  std::set<std::int64_t> coordinator_cells, worker_cells;
  for (const Json& ev : events.items()) {
    const std::string ph = ev.at("ph").as_string();
    pids.insert(ev.at("pid").as_int());
    if (ph == "M") {
      names.insert(ev.at("args").at("name").as_string());
      continue;
    }
    ASSERT_EQ(ph, "X");
    const std::int64_t ts = ev.at("ts").as_int();
    EXPECT_GE(ts, last_ts);  // sorted
    last_ts = ts;
    const std::string name = ev.at("name").as_string();
    if (name == "shard.cell" || name == "worker.cell") {
      const std::int64_t cell = ev.at("args").at("cell_index").as_int();
      (ev.at("pid").as_int() == 1 ? coordinator_cells : worker_cells)
          .insert(cell);
    }
  }
  // Coordinator is pid 1; worker slots are pids 2 and 3.
  EXPECT_EQ(pids, (std::set<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(names, (std::set<std::string>{"coordinator", "worker 0",
                                          "worker 1"}));
  // Every cell's life is visible from both sides of the wire.
  const std::set<std::int64_t> all = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(coordinator_cells, all);
  EXPECT_EQ(worker_cells, all);
}

// ------------------------------------------------------ flight recorder

TEST(Telemetry, EventLogRoundTripsWithMonotonicTimestamps) {
  TempFile log("telemetry_events.jsonl");
  ASSERT_FALSE(events_enabled());
  ASSERT_TRUE(open_event_log(log.path));
  ASSERT_TRUE(events_enabled());
  Json spawn = Json::object();
  spawn.set("slot", 0).set("pid", 4242);
  log_event("worker_spawn", std::move(spawn));
  Json dispatch = Json::object();
  dispatch.set("cell_index", 3).set("slot", 0);
  log_event("cell_dispatch", std::move(dispatch));
  Json gap = Json::object();
  gap.set("slot", 0).set("age_ms", 500);
  log_event("heartbeat_gap", std::move(gap));
  close_event_log();
  EXPECT_FALSE(events_enabled());
  // Closed log: further events are dropped, not crashed on.
  log_event("worker_death", Json::object());

  std::ifstream in(log.path);
  std::string line;
  std::vector<Json> lines;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    lines.push_back(Json::parse(line));  // throws = test failure
  }
  ASSERT_EQ(lines.size(), 3u);
  std::int64_t last_ts = -1;
  for (const Json& j : lines) {
    ASSERT_TRUE(j.is_object());
    const std::int64_t ts = j.at("ts_us").as_int();
    EXPECT_GE(ts, last_ts);  // one writer, one clock: monotonic
    last_ts = ts;
  }
  EXPECT_EQ(lines[0].at("type").as_string(), "worker_spawn");
  EXPECT_EQ(lines[0].at("pid").as_int(), 4242);
  EXPECT_EQ(lines[1].at("type").as_string(), "cell_dispatch");
  EXPECT_EQ(lines[1].at("cell_index").as_int(), 3);
  EXPECT_EQ(lines[2].at("type").as_string(), "heartbeat_gap");
  EXPECT_EQ(lines[2].at("age_ms").as_int(), 500);
}

TEST(Telemetry, SidecarFilesNeverTouchReportBytes) {
  // The full streaming stack at once — heartbeats, health, worker trace
  // harvest, flight recorder — against the bare run.
  TempFile log("telemetry_all_on.jsonl");
  const Experiment e = small_grid();
  const std::string bare = [&] {
    ShardOptions options;
    options.shards = 2;
    return run_sharded(e.cells(), options).to_json(false).dump();
  }();
  reset_trace();
  set_tracing_enabled(true);
  ASSERT_TRUE(open_event_log(log.path));
  ShardOptions options;
  options.shards = 2;
  options.telemetry_interval = std::chrono::milliseconds(10);
  options.heartbeat_stale_after = std::chrono::milliseconds(2000);
  std::vector<WorkerHealth> health;
  std::vector<ProcessTrace> worker_traces;
  options.health = &health;
  options.worker_traces = &worker_traces;
  const Report all_on = run_sharded(e.cells(), options);
  close_event_log();
  set_tracing_enabled(false);
  EXPECT_EQ(all_on.to_json(false).dump(), bare);
  // And the sidecars actually captured the run.
  EXPECT_EQ(worker_traces.size(), 2u);
  const std::string events_text = slurp(log.path);
  EXPECT_NE(events_text.find("\"type\":\"worker_spawn\""),
            std::string::npos);
  EXPECT_NE(events_text.find("\"type\":\"cell_dispatch\""),
            std::string::npos);
}

// ---------------------------------------------------------- delta_since

TEST(Telemetry, DeltaSinceDiffsSaturatesAndDropsZeroes) {
  MetricsSnapshot prev;
  prev.counters["a"] = 10;
  prev.counters["b"] = 7;   // will not move
  prev.counters["c"] = 50;  // will go BACKWARD (reset): saturates to 0

  MetricsSnapshot now;
  now.counters["a"] = 25;
  now.counters["b"] = 7;
  now.counters["c"] = 3;
  now.counters["d"] = 9;  // new since prev

  const MetricsSnapshot d = now.delta_since(prev);
  EXPECT_EQ(d.counters.size(), 2u);  // b unchanged, c saturated: dropped
  EXPECT_EQ(d.counters.at("a"), 15u);
  EXPECT_EQ(d.counters.at("d"), 9u);

  // Folding the delta back onto prev reconstructs the counters — the
  // coordinator-side accumulation the health table relies on.
  MetricsSnapshot folded = prev;
  folded.merge(d);
  EXPECT_EQ(folded.counters.at("a"), now.counters.at("a"));
  EXPECT_EQ(folded.counters.at("d"), now.counters.at("d"));

  // Identical snapshots: the delta is completely empty.
  EXPECT_TRUE(now.delta_since(now).empty());
}

}  // namespace
}  // namespace mpcn
