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
// A lock-step cell runs all of its processes as fibers on the pool thread
// that runs it; a free-mode cell spawns one OS thread per simulated or
// simulating process on top of the pool. threads = 0 picks a pool size
// from the hardware.
//
// Backends: with shards = 0 the grid runs on an in-process thread pool;
// with shards > 0 it is distributed over worker SUBPROCESSES through the
// JSON-lines wire protocol (src/dist/shard.h). Both backends produce the
// same grid-ordered Report, byte-identical with timing excluded.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "src/dist/shard.h"
#include "src/experiment/experiment.h"
#include "src/experiment/record.h"
#include "src/obs/metrics.h"

namespace mpcn {

struct BatchOptions {
  // In-process worker pool size; 0 = std::thread::hardware_concurrency
  // (min 1). The sharded backend runs each worker's cells on one thread:
  // run() throws ProtocolError for threads > 1 together with shards > 0.
  int threads = 0;
  // Report title ("" = derived from the first cell's scenario).
  std::string title;
  // > 0: distribute the grid over this many worker subprocesses
  // (src/dist/shard.h). Requires wire-serializable cells, i.e. a grid
  // built from Experiment::named.
  int shards = 0;
  // Worker argv for the sharded backend (e.g. {"mpcn", "worker"});
  // empty = fork the current process image, no binary needed.
  std::vector<std::string> worker_argv;
  // Telemetry passthrough to the sharded backend (ShardOptions): collect
  // one MetricsSnapshot per surviving worker at shutdown. Ignored by the
  // in-process backend (its counters land in the process registry
  // directly). Sidecar-only — never affects the Report.
  std::vector<MetricsSnapshot>* worker_metrics = nullptr;
  // stderr progress heartbeat: the in-process backend samples a
  // completed-cells counter; the sharded backend prints on result
  // arrivals.
  bool progress = false;
  // Health-layer passthrough to the sharded backend (see ShardOptions
  // for semantics). All ignored by the in-process backend; all
  // sidecar-only.
  std::chrono::milliseconds telemetry_interval{0};
  std::chrono::milliseconds heartbeat_stale_after{0};
  std::vector<ProcessTrace>* worker_traces = nullptr;
  std::vector<WorkerHealth>* health = nullptr;
  // Fault injection for the health layer (ShardOptions::worker_stop_after):
  // slot i freezes (SIGSTOP) after replying to worker_stop_after[i] cells.
  std::vector<int> worker_stop_after;
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
