// Explorer: adversarial schedule search over one experiment cell, plus
// the delta-debugging counterexample shrinker.
//
// The paper's simulations are correct only across ALL interleavings; a
// seeded grid samples one schedule per cell. The explorer runs the SAME
// cell under many schedules — seeded-random sampling, PCT probabilistic
// priority schedules, or systematic bounded-DFS enumeration — and feeds
// every run through two oracles:
//
//   * the cell's task relation (RunRecord::ok — liveness + validity +
//     agreement, exactly what the batch runner already checks), and
//   * optionally a SequentialSpec (src/history/linearizability.h) over
//     the HistoryRecorder events the direct-mode run produced.
//
// A run failing either oracle is a VIOLATION; its recorded grant trace
// is the counterexample. shrink() then minimizes it: ddmin over the
// grant list, judging each candidate by a replay through the Scripted
// policy. Because scripted replay skips unmatched entries and falls back
// to the lowest runnable thread, every subsequence of a trace is a valid
// schedule, so the result is locally minimal — no single grant can be
// dropped without losing the failure — and is re-verified by one final
// replay. Two kinds of candidate are judged without a replay, because
// their verdict is already known and replays are deterministic:
//
//   * in one ddmin pass, removing a full chunk equal (grant and crash
//     mark) to the chunk before it leaves the candidate judged just
//     before, which did not fail, or the pass would have ended;
//   * in one search, a violation whose raw trace, race flag and crashed
//     flag equal an earlier violation's reuses that violation's shrink,
//     since shrink() is a pure function of (cell, trace, options) and
//     those flags are the only options that vary within a search.
//
// Both still count toward the shrink budget and the report's
// shrink_replays exactly as a replay would, so no report byte depends on
// them; the explore.shrink_runs counter counts the replays actually run.
//
// Scaling: in-process, a search runs its schedules one after another on
// the calling thread (each run's processes are fibers of that thread),
// with one history recorder reused across runs. Random/PCT searches are
// embarrassingly parallel — schedule i is schedule 0's ScheduleSpec with
// seed + i, a pure function of its index — and `shards` spreads them
// over more cores: it ships contiguous ranges of schedule indices to
// worker subprocesses over the wire protocol (src/dist/), one range line
// out and one reply line back per range (run_schedule_range is what a
// worker runs), configured by the ShardSettings that ExploreOptions
// inherits. Replies land in per-index slots that one merge walks in
// index order, so the report is byte-identical to the serial run, and
// no range past the max_violations cutoff is dispatched. Bounded DFS
// carries its search tree across runs and is in-process only (shards
// are rejected), as is the sequential-spec oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/dist/shard.h"
#include "src/experiment/experiment.h"
#include "src/explore/policy.h"
#include "src/explore/trace.h"
#include "src/history/linearizability.h"

namespace mpcn {

// Search strategy. Distinct from SchedulePolicyKind: bounded DFS is not
// a wire-serializable per-run policy (its state is the search tree), so
// it exists only here.
enum class ExplorePolicy { kSeededRandom, kPct, kBoundedDfs };

const char* to_string(ExplorePolicy policy);
ExplorePolicy explore_policy_from_string(const std::string& s);

// The sharded backend's settings come from ShardSettings: with shards
// > 0 the schedule budget fans out over that many worker subprocesses
// through src/dist/, in ranges of ceil(budget / (8 * shards))
// schedules (random/PCT only; requires a registry-named cell), and the
// telemetry, health and fault-injection fields apply to that pool.
// Without shards only `progress` applies, as the search loop's meter.
struct ExploreOptions : ShardSettings {
  ExplorePolicy policy = ExplorePolicy::kPct;
  // Base seed: schedule i runs under seed + i (random/PCT).
  std::uint64_t seed = 1;
  // Max schedules to run; DFS may exhaust its bounded tree earlier.
  int budget = 200;
  // Stop after this many violations (0 = collect all within budget).
  int max_violations = 1;

  int pct_depth = 3;
  // 0 = probe: one seeded-random run measures a realistic horizon
  // (its step count) before the search fans out.
  std::uint64_t pct_horizon = 0;

  int dfs_preemption_bound = 2;

  // > 0: search the (schedule × crash) product. The cell runs under
  // CrashPlan::explored(crash_budget, crash_rate): at each grant the
  // policy also decides whether the granted process crashes, within this
  // budget of at most crash_budget process crashes, which must not
  // exceed the target model's t. Bounded DFS enumerates crash placements
  // systematically (ignoring crash_rate); random/PCT sample them at
  // crash_rate per grant. 0 = schedule-only (the cell's own crash plan,
  // usually none, applies unchanged).
  int crash_budget = 0;
  double crash_rate = 0.1;

  bool shrink_violations = true;
  // Max candidates judged per violation (ShrinkOptions::max_replays),
  // candidates judged without a replay included.
  int shrink_budget = 400;

  // Optional linearizability oracle over the run's recorded history
  // (direct-mode cells; in-process only). Histories longer than the
  // checker's 64-operation cap are skipped and counted.
  std::shared_ptr<const SequentialSpec> spec;

  // Third oracle: the happens-before race detector (src/analysis/).
  // Direct-mode cells only. Unlike the spec oracle this IS shardable —
  // the flag serializes with the cell and workers run the analysis
  // themselves, so sharded and in-process searches stay byte-identical.
  bool check_races = false;
};

struct ExploreViolation {
  int schedule_index = -1;  // which schedule of the search found it
  RunRecord record;         // the failing run (schedule fields populated)
  std::string why;          // oracle explanation
  // The race oracle flagged this run; record.race_reports holds the
  // reports. A run can be a race AND a verdict violation at once (the
  // racy_register torn read breaks validity); `race` lets the CLI exit
  // distinctly either way.
  bool race = false;
  // The failing run realized at least one crash (product searches): the
  // violation needed the fault adversary, not just the schedule — the
  // CLI exits distinctly on crash-only findings.
  bool crashed = false;
  ScheduleTrace trace;      // the counterexample schedule
  ScheduleTrace shrunk;     // == trace when shrinking is off or failed
  bool shrunk_verified = false;  // the shrunk trace re-failed on replay
  int shrink_replays = 0;
};

struct ExploreResult {
  ExplorePolicy policy = ExplorePolicy::kPct;
  int schedules = 0;          // search runs executed (probe excluded)
  bool exhausted = false;     // DFS enumerated its whole bounded tree
  std::uint64_t total_steps = 0;
  std::uint64_t pct_horizon = 0;      // horizon actually used
  // Always 0 (bounded DFS prunes nothing); kept in the report because
  // perfbench/layers.cc reads it.
  std::uint64_t pruned_prefixes = 0;
  int skipped_spec_checks = 0;  // histories over the 64-op checker cap
  // Observed grant trace of schedule #0 — the record side of the CLI's
  // --record / --replay byte-identity loop.
  ScheduleTrace first_trace;
  std::vector<ExploreViolation> violations;

  bool found() const { return !violations.empty(); }

  // Any violation flagged by the race oracle, and the total number of
  // race reports across all violations.
  bool race_found() const;
  int race_reports() const;

  // Any violation whose run realized a crash / every violation did. The
  // CLI uses crash_only() for its crash-violation exit code: when all
  // findings needed the fault adversary, schedule-only search at the
  // same budget would have stayed clean.
  bool crash_found() const;
  bool crash_only() const;

  Json to_json(bool include_traces = true) const;
  std::string summary() const;
};

// Run the search. `cell` is one executable cell (Experiment::cells());
// its schedule/policy fields are overridden per run. Throws
// ProtocolError on unusable configurations (sharded DFS, sharded spec
// oracle).
ExploreResult explore(const ExperimentCell& cell,
                      const ExploreOptions& options);

// Schedules first..first+count-1 of a random/PCT search: the work of one
// shard range line (src/dist/wire.h). `base` is the search's cell with
// schedule 0's ScheduleSpec; schedule i runs `base` with cell_index = i
// and schedule seed + i, through the same run-and-judge code as the
// in-process search, on one history recorder reused across the range. The result holds every step count, and the records of the
// violating schedules and of schedule 0. Shard workers run this for each
// range line; the coordinator runs it when its worker pool drains.
RangeResult run_schedule_range(const ExperimentCell& base, int first,
                               int count);

// The verdict of the explorer's three oracles on one run: the task and
// liveness verdict folded into RunRecord::ok, the race verdict the cell
// runner stamped into the record, and (for a clean run with a recorded
// history) the sequential spec.
struct OracleVerdict {
  bool violated = false;
  bool spec_skipped = false;  // history over the spec checker's op cap
  bool race = false;     // the race oracle flagged the run
  bool crashed = false;  // the run realized at least one crash
  std::string why;       // set when violated
};

// Judge one run: what every search, shrink candidate and
// `mpcn explore --replay` calls a violation, and why.
OracleVerdict judge(const RunRecord& rec,
                    const std::shared_ptr<const SequentialSpec>& spec,
                    const std::shared_ptr<HistoryRecorder>& history);

// Replay one explicit schedule against the cell (Scripted policy, trace
// recording on). The returned record's schedule_trace is the OBSERVED
// grant trace — byte-identical to `trace` when the run is deterministic
// and the trace was recorded from this cell, which is what the CI
// record -> replay `cmp` leg pins. A trace carrying crash marks replays
// them too: if the cell has no crash plan of its own, an explored plan
// sized to the trace's crash count is attached automatically.
RunRecord replay_trace(const ExperimentCell& cell,
                       const ScheduleTrace& trace);

struct ShrinkOptions {
  // Budget of candidates judged. The first reproduction replay counts as
  // one, and so does a candidate judged without a replay (one equal to
  // the candidate judged before it in its ddmin pass). The final
  // verification replay always runs, past the budget if need be.
  int max_replays = 400;
  // Same optional oracle as ExploreOptions::spec: candidates count as
  // failing if the record fails OR the recorded history violates the
  // spec.
  std::shared_ptr<const SequentialSpec> spec;
  // Run the race oracle on every candidate replay.
  bool check_races = false;
  // With check_races: a candidate only counts as failing if it still
  // exhibits a RACE (not merely any violation), so shrinking a race
  // counterexample cannot drift onto a race-free failure mode.
  bool require_race = false;
  // A candidate only counts as failing if its run still realizes a
  // CRASH: shrinking a fault-injection counterexample cannot drift onto
  // a crash-free failure mode (the crash analogue of require_race).
  bool require_crash = false;
};

struct ShrinkResult {
  ScheduleTrace trace;   // locally-minimal failing trace
  // Candidates judged, as charged to max_replays (skipped duplicates
  // included), plus the final verification replay.
  int replays = 0;
  bool verified = false; // final replay of `trace` still failed
};

// ddmin the failing trace to a locally-minimal counterexample. Crash
// marks travel with their grants through the minimization, and a final
// pass tries to clear each surviving mark individually — so the result
// is minimal over grants AND crash points. If `failing` does not
// reproduce the failure on the first replay, returns it unchanged with
// verified = false.
ShrinkResult shrink(const ExperimentCell& cell, const ScheduleTrace& failing,
                    const ShrinkOptions& options = {});

}  // namespace mpcn
