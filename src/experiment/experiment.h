// The unified experiment API: one builder-style entry point for every way
// of running an algorithm, and the expansion of a configuration into a
// deterministic grid of independent executable cells.
//
//   Experiment::of(trivial_kset_algorithm(8, 1))
//       .in(ModelSpec{8, 5, 3})                 // simulate via the engine
//       .with_task(std::make_shared<KSetAgreementTask>(2))
//       .input_pool(ints)
//       .seeds(1, 32)                            // seed axis
//       .crashes([](const ModelSpec& m, std::uint64_t s) {
//         return CrashPlan::hazard(0.001, m.t, s);
//       })
//       .run_all();                              // batch -> Report
//
// One ExecutionMode axis covers every way to run an algorithm: direct()
// (native run in the source model), in(target) (generalized BG engine; the
// colored engine for colored scenarios), and through_chain_to(other) (the
// Figure 7 chain, expanded into one cell per hop).
//
// Grid semantics: cells() expands targets x seeds x memory backends into
// an ordered vector of ExperimentCells. Each cell is one independent
// Execution — embarrassingly parallel — and the cell ORDER is a pure
// function of the configuration, so a Report built from the grid is
// deterministic regardless of worker scheduling (see batch_runner.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/bg_engine.h"
#include "src/core/models.h"
#include "src/core/sim_api.h"
#include "src/experiment/record.h"
#include "src/explore/trace.h"
#include "src/runtime/crash_plan.h"
#include "src/runtime/execution.h"
#include "src/tasks/task.h"

namespace mpcn {

struct BatchOptions;   // batch_runner.h
class HistoryRecorder;  // src/history/history.h

// Per-cell crash-plan factory: one plan per (target model, seed) cell, so
// adversaries can scale with the hop's budget and stay seed-deterministic.
using CrashPlanFactory =
    std::function<CrashPlan(const ModelSpec& target, std::uint64_t seed)>;

// One executable cell of the grid: everything needed to run and record a
// single Execution. Produced by Experiment::cells(); consumed by
// run_cell() and run_batch().
struct ExperimentCell {
  std::string scenario;
  std::shared_ptr<const SimulatedAlgorithm> algorithm;
  ExecutionMode mode = ExecutionMode::kDirect;  // never kChain (expanded)
  ModelSpec target;
  int hop_index = -1;  // >= 0 when this cell is a chain hop
  // Position in the expanded grid, stamped by cells(). The merge key for
  // sharded backends (src/dist/) and the record's grid identity.
  int cell_index = -1;
  MemKind mem = MemKind::kPrimitive;
  bool check_legality = true;
  // Seed and crash plan already baked in. options.schedule_policy is the
  // in-process policy object hook: set, it wins over `schedule` (e.g. a
  // BoundedDfsPolicy whose state spans runs) and the cell cannot cross
  // the wire.
  ExecutionOptions options;
  std::shared_ptr<const ColorlessTask> task;  // may be null
  std::vector<Value> inputs;

  // ------------------------------------------- schedule-explorer hooks
  // Declarative grant policy (src/explore/trace.h). kDefault runs
  // SeededRandomPolicy at options.seed; anything else is materialized by
  // run_cell via make_policy(). Wire-serializable (src/dist/wire.h).
  ScheduleSpec schedule;
  // Capture the grant trace: the RunRecord gains schedule_digest and
  // schedule_trace.
  bool record_schedule = false;
  // In-process only: when set, direct-mode cells record every mem
  // write/snapshot as an Event (src/history/) so the explorer can run
  // SequentialSpec oracles over the run. Ignored by engine modes, whose
  // simulated operations already funnel through agreement protocols.
  std::shared_ptr<HistoryRecorder> history;
  // Run the happens-before race oracle (src/analysis/race_oracle.h)
  // over the run's event log + grant trace and stamp the verdict into
  // RunRecord::{races_checked, race_reports}. Direct-mode cells only
  // (run_cell_throwing throws otherwise). Unlike `history` and
  // options.schedule_policy, this is a serializable flag: sharded workers
  // run the identical analysis, so sharded and in-process race searches
  // produce byte-identical records.
  bool check_races = false;
};

// Execute one cell. The throwing variant propagates configuration and
// protocol errors (used by single runs); run_cell() captures any
// exception into RunRecord::error so one broken cell cannot take down a
// batch.
RunRecord run_cell_throwing(const ExperimentCell& cell);
RunRecord run_cell(const ExperimentCell& cell);

// The programs of a direct-mode cell: A's programs as native runtime
// programs in A's own model (one real process per simulated process,
// port-enforced x-consensus objects). `mem` picks the snapshot substrate
// backing mem[1..n]: the one-step model primitive (default) or the
// wait-free Afek construction. `history` (optional) records every mem
// write/snapshot as an Event — a kWrite of value v to cell j, a kSnapshot
// with its view — stamped with the global step clock, the raw material for
// the explorer's SequentialSpec oracles (src/history/linearizability.h).
std::vector<Program> make_direct_programs(
    const SimulatedAlgorithm& algorithm, MemKind mem = MemKind::kPrimitive,
    std::shared_ptr<HistoryRecorder> history = nullptr);

class Experiment {
 public:
  // Start from an explicit algorithm...
  static Experiment of(SimulatedAlgorithm algorithm);
  // ...or from a registered scenario name (registry.h): builds the
  // algorithm for `source`, adopts the scenario's canonical task, and
  // routes simulated runs through the colored engine when the scenario is
  // colored. Throws ProtocolError for unknown names.
  static Experiment named(const std::string& scenario,
                          const ModelSpec& source);

  // ------------------------------------------------------ mode axis
  // Run natively in the algorithm's own model.
  Experiment& direct();
  // Run in `target` through the engine (repeatable: each call adds a
  // grid column). Colored algorithms go through the colored engine.
  Experiment& in(const ModelSpec& target);
  Experiment& in_each(const std::vector<ModelSpec>& targets);
  // Run in `target` through the colored engine regardless of how the
  // algorithm was obtained (named() colored scenarios get this via in()).
  Experiment& colored_in(const ModelSpec& target);
  // Walk the Figure 7 equivalence chain between the source model and
  // `other`: expands to one cell per hop (direct on the source model hop,
  // simulated elsewhere). Throws if the models are not equivalent.
  Experiment& through_chain_to(const ModelSpec& other);

  // ------------------------------------------------------ workload
  Experiment& with_task(std::shared_ptr<const ColorlessTask> task);
  // Exact per-process inputs; every cell's target must have n = size.
  Experiment& inputs(std::vector<Value> exact);
  // Pooled inputs: process i of an n-process cell gets pool[i % size].
  Experiment& input_pool(std::vector<Value> pool);
  // Fully custom: inputs as a function of the cell's target model.
  Experiment& inputs_fn(
      std::function<std::vector<Value>(const ModelSpec&)> fn);

  // ------------------------------------------------------ grid axes
  Experiment& seed(std::uint64_t s);                       // single seed
  Experiment& seeds(std::uint64_t lo, std::uint64_t hi);   // inclusive
  // Explicit (possibly non-contiguous) seed axis, e.g. from a parsed
  // "1..4,9" spec (src/common/parse.h). Order-preserving.
  Experiment& seed_list(std::vector<std::uint64_t> seeds);
  Experiment& mem(MemKind kind);                           // single backend
  Experiment& mems(std::vector<MemKind> kinds);            // backend axis

  // ------------------------------------------------------ adversary
  Experiment& crashes(CrashPlan plan);         // same plan in every cell
  Experiment& crashes(CrashPlanFactory plan_fn);  // per (model, seed)

  // ------------------------------------------------------ runtime knobs
  Experiment& step_limit(std::uint64_t limit);
  Experiment& wall_limit(std::chrono::milliseconds limit);
  // Bulk override (compatibility with ExecutionOptions-based call sites);
  // adopts step/wall limits and crash plan, and the seed as the
  // single-seed axis. A schedule_policy object rides into every cell,
  // which keeps the grid in-process (the wire refuses it).
  Experiment& base_options(const ExecutionOptions& options);
  Experiment& check_legality(bool check);
  Experiment& label(std::string scenario_label);

  // ------------------------------------------------------ execution
  // Expand the configured grid, in deterministic order:
  //   for each target (chains expanded hop by hop)
  //     for each seed
  //       for each memory backend
  // Throws ProtocolError on configuration errors (no mode selected, no
  // inputs, input size mismatch, non-equivalent chain endpoints, ...).
  std::vector<ExperimentCell> cells() const;

  // Run a single-cell experiment synchronously; throws on protocol or
  // configuration errors. Refuses grids larger than one cell.
  RunRecord run() const;

  // Run the whole grid through run_batch: in-process in a plain loop, or
  // over shard workers when batch.shards > 0. One RunRecord per cell in
  // grid order; per-cell errors are captured, not thrown.
  Report run_all(const BatchOptions& batch) const;
  Report run_all() const;

 private:
  Experiment() = default;

  struct TargetSpec {
    ExecutionMode mode = ExecutionMode::kDirect;
    ModelSpec model;  // kChain: the other end of the chain
  };

  std::shared_ptr<const SimulatedAlgorithm> algorithm_;
  std::string scenario_;
  bool colored_ = false;
  std::vector<TargetSpec> targets_;
  std::shared_ptr<const ColorlessTask> task_;
  std::function<std::vector<Value>(const ModelSpec&)> inputs_fn_;
  std::uint64_t seed_lo_ = 1;
  std::uint64_t seed_hi_ = 1;
  bool seed_set_ = false;  // seed()/seeds() overrides base_options' seed
  std::vector<std::uint64_t> seed_list_;  // non-empty: overrides lo..hi
  std::vector<MemKind> mems_{MemKind::kPrimitive};
  CrashPlanFactory crash_fn_;
  ExecutionOptions base_;
  bool check_legality_ = true;
};

}  // namespace mpcn
