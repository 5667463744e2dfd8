// run_batch: run a grid of independent ExperimentCells and collect the
// grid-ordered Report.
//
// Each cell is one self-contained Execution (its own step controller,
// crash manager and shared world) that runs all of its processes as
// fibers on the calling thread. In-process, run_batch runs the cells in
// a plain loop in grid order, so the process never starts a second OS
// thread. The Report lists records in GRID ORDER — a pure function of
// the experiment configuration — which is what makes batch reports
// reproducible (and, with timing excluded, byte-identical) across runs.
//
// Backends: with shards = 0 the grid runs in-process; with shards > 0 it
// is distributed over FORKED worker processes through the JSON-lines
// wire protocol (src/dist/shard.h), configured by the ShardSettings that
// BatchOptions inherits. That is the one way to use more cores. Both
// backends produce the same grid-ordered Report, byte-identical with
// timing excluded.
#pragma once

#include <string>
#include <vector>

#include "src/dist/shard.h"
#include "src/experiment/experiment.h"
#include "src/experiment/record.h"

namespace mpcn {

// The sharded backend's settings (shards, progress, the telemetry and
// health sidecars, fault injection) come from ShardSettings; without
// shards only `progress` applies, as the in-process loop's meter.
struct BatchOptions : ShardSettings {
  // Report title ("" = derived from the first cell's scenario).
  std::string title;
};

// Runs every cell (captures per-cell errors in RunRecord::error) and
// returns the grid-ordered Report.
Report run_batch(const std::vector<ExperimentCell>& cells,
                 const BatchOptions& options = {});

// The shared title rule for every backend: `requested` when non-empty,
// else the first labeled cell's scenario, else "batch". In-process and
// sharded reports must derive titles identically to stay byte-identical.
std::string derive_report_title(const std::vector<ExperimentCell>& cells,
                                const std::string& requested);

}  // namespace mpcn
