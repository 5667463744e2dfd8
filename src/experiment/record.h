// Structured experiment results: one RunRecord per executed cell, one
// Report per batch.
//
// The paper's claim is an *equivalence of models*, so demonstrating it
// means running the same algorithm across many (model, seed, crash-plan,
// memory-backend) cells and comparing outcomes at scale. RunRecord is the
// machine-readable unit of comparison: everything a run produced
// (decisions, crashes, step count, wall time) plus everything needed to
// interpret it (source/target model, seed, task verdict). Report is the
// ordered aggregate run_batch emits.
//
// JSON: to_json()/from_json() round-trip every field except wall-clock
// times, which can be excluded (include_timing = false) so that reports
// from identical seed grids compare byte-identical — the determinism
// contract the tests pin down.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/race_oracle.h"
#include "src/common/json.h"
#include "src/common/value.h"
#include "src/core/bg_engine.h"
#include "src/core/models.h"
#include "src/explore/trace.h"
#include "src/runtime/execution.h"

namespace mpcn {

// The single execution-mode axis of an Experiment (experiment.h):
//   kDirect    — A runs natively in its own model;
//   kSimulated — A runs in a target model through the generalized engine;
//   kChain     — A walks every model of the Figure 7 equivalence chain
//                (expands to one kDirect/kSimulated cell per hop);
//   kColored   — A runs through the colored engine (Section 5.5).
enum class ExecutionMode { kDirect, kSimulated, kChain, kColored };

const char* to_string(ExecutionMode mode);
ExecutionMode execution_mode_from_string(const std::string& s);

const char* to_string(MemKind mem);
MemKind mem_kind_from_string(const std::string& s);

// Value <-> Json. The mapping is bijective per Value kind:
// nil <-> null, int <-> integer, string <-> string, list <-> array.
Json value_to_json(const Value& v);
Value value_from_json(const Json& j);

// ModelSpec <-> {"n":..,"t":..,"x":..}. The single encoding shared by
// RunRecord and the wire protocol (src/dist/wire.h) so the two cannot
// drift.
Json model_spec_to_json(const ModelSpec& m);
ModelSpec model_spec_from_json(const Json& j);

struct RunRecord {
  std::string scenario;  // registry name or user label ("" if unnamed)
  // Position of this cell in its experiment grid (-1 = not grid-stamped).
  // Experiment::cells() stamps it; it is the merge key that lets shard
  // reports (src/dist/) reassemble into the exact in-process grid order.
  int cell_index = -1;
  ExecutionMode mode = ExecutionMode::kDirect;  // mode this cell executed in
  ModelSpec source;      // the model the algorithm was written for
  ModelSpec target;      // the model the cell actually ran in
  int hop_index = -1;    // >= 0: position within a kChain expansion
  std::uint64_t seed = 0;
  MemKind mem = MemKind::kPrimitive;

  std::vector<Value> inputs;
  std::vector<std::optional<Value>> decisions;
  std::vector<bool> crashed;
  bool timed_out = false;
  std::uint64_t steps = 0;
  double wall_ms = 0.0;

  std::string task;        // validating task's name ("" = not validated)
  bool validated = false;  // a task verdict was computed
  bool valid = false;      // the verdict
  std::string why;         // failure explanation when !valid

  std::string error;  // exception text if the cell threw ("" = clean run)

  // Schedule identity, populated when the cell asked for it
  // (ExperimentCell::record_schedule): the grant trace's 16-hex FNV
  // fingerprint, and the trace itself. Both serialize only when present,
  // so reports from non-exploring grids stay byte-identical to pre-
  // explorer builds.
  std::string schedule_digest;  // "" = schedule not recorded
  std::shared_ptr<const ScheduleTrace> schedule_trace;  // may be null

  // The crash adversary, when the cell ran under one: the effective plan
  // (seed included, so hazard runs can be re-randomized identically) and
  // the crashes the run actually realized as (pid, own-step) points —
  // replaying those as CrashPlan::fixed reproduces the exact failure
  // pattern from the report alone. Both serialize only when non-trivial,
  // so crash-free reports keep their pre-crash bytes.
  CrashPlan crash_plan = CrashPlan::none();
  std::vector<CrashPoint> crash_points;

  // Race-oracle verdict (src/analysis/), populated when the cell asked
  // for it (ExperimentCell::check_races). races_checked distinguishes
  // "analyzed, zero races" from "never analyzed"; both fields serialize
  // only when checked, preserving byte-identity for non-checking grids.
  bool races_checked = false;
  std::vector<RaceReport> race_reports;

  // Clean run + liveness + (when validated) task relation all hold.
  // Race reports are a separate verdict (raced()): a racy run can still
  // satisfy its task, and the explorer/CLI distinguish the two outcomes.
  bool ok() const;

  // The race oracle ran and found at least one race.
  bool raced() const { return races_checked && !race_reports.empty(); }

  // Reconstruct the classic Outcome view of this record.
  Outcome outcome() const;

  Json to_json(bool include_timing = true) const;
  static RunRecord from_json(const Json& j);
};

struct Report {
  std::string title;
  std::vector<RunRecord> records;  // cell order, deterministic

  int ok_count() const;
  int failed_count() const;
  bool all_ok() const;
  std::uint64_t total_steps() const;
  double total_wall_ms() const;

  Json to_json(bool include_timing = true) const;
  static Report from_json(const Json& j);

  // Stable grid-order merge of partial reports, keyed by cell_index:
  // records are sorted by index (ties keep part order), exact duplicates
  // (timing excluded) are dropped — a cell requeued from a presumed-dead
  // worker may legitimately complete twice — and conflicting duplicates
  // throw ProtocolError. Records WITHOUT a stamp (pre-PR4 baselines)
  // are tolerated: they merge keyed by record_identity (diff.h) — exact
  // duplicates dropped, the rest kept in part order after the stamped
  // records. The title comes from the first non-empty part title. This
  // is how the shard coordinator (src/dist/shard.h) reassembles worker
  // results into the in-process grid order.
  static Report merge(const std::vector<Report>& parts);

  // One-line human summary ("12/12 cells ok, 48,230 steps").
  std::string summary() const;
};

}  // namespace mpcn
