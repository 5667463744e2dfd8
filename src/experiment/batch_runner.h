// BatchRunner: fan a grid of independent ExperimentCells out over a
// worker thread pool.
//
// Each cell is one self-contained Execution (its own step controller,
// crash manager and shared world), so the grid is embarrassingly
// parallel: workers pull the next unclaimed cell index from an atomic
// counter and write the resulting RunRecord into its pre-assigned slot.
// The Report therefore lists records in GRID ORDER — a pure function of
// the experiment configuration, independent of worker interleaving —
// which is what makes batch reports reproducible (and, with timing
// excluded, byte-identical) across runs.
//
// A cell runs all of its processes as fibers on the pool thread that runs
// it. threads = 0 picks a pool size from the hardware.
//
// Backends: with shards = 0 the grid runs on an in-process thread pool;
// with shards > 0 it is distributed over worker SUBPROCESSES through the
// JSON-lines wire protocol (src/dist/shard.h), configured by the
// ShardSettings that BatchOptions inherits. Both backends produce the
// same grid-ordered Report, byte-identical with timing excluded.
#pragma once

#include <string>
#include <vector>

#include "src/dist/shard.h"
#include "src/experiment/experiment.h"
#include "src/experiment/record.h"

namespace mpcn {

// The sharded backend's settings (shards, worker_argv, progress, the
// telemetry and health sidecars) come from ShardSettings; without
// shards only `progress` applies, as the in-process pool's meter.
struct BatchOptions : ShardSettings {
  // In-process worker pool size; 0 = std::thread::hardware_concurrency
  // (min 1). The sharded backend runs each worker's cells on one thread:
  // run() throws ProtocolError for threads > 1 together with shards > 0.
  int threads = 0;
  // Report title ("" = derived from the first cell's scenario).
  std::string title;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  // Runs every cell (captures per-cell errors in RunRecord::error) and
  // returns the grid-ordered Report.
  Report run(const std::vector<ExperimentCell>& cells) const;

 private:
  BatchOptions options_;
};

// Convenience one-shot.
Report run_batch(const std::vector<ExperimentCell>& cells,
                 BatchOptions options = {});

// The shared title rule for every backend: `requested` when non-empty,
// else the first labeled cell's scenario, else "batch". In-process and
// sharded reports must derive titles identically to stay byte-identical.
std::string derive_report_title(const std::vector<ExperimentCell>& cells,
                                const std::string& requested);

}  // namespace mpcn
