// The distributed shard runner: a coordinator that fans work out over
// FORKED worker processes speaking the JSON-lines wire protocol
// (wire.h), and the worker loop those processes run. It is the one way
// an `mpcn run` or `mpcn explore` uses more than one core: in-process,
// both run their cells or schedules one after another on the calling
// thread.
//
// Work comes in two shapes, served by one pool loop. An experiment grid
// (run_sharded) ships one cell line per grid cell and gets one result
// line back. A random/PCT schedule search (run_sharded_search) ships one
// range line per contiguous block of ceil(budget / (8 * shards))
// schedule indices — about eight per worker — and gets back one line
// with every schedule's step count and the records of only the
// violating schedules and schedule 0.
//
// Topology: one coordinator, K workers, one socketpair per worker. Each
// worker is a fork() of the coordinator that runs run_worker_loop on its
// end of the socketpair; it inherits the coordinator's settings
// (heartbeat, span recording, fault injection) in memory, so the wire
// carries only jobs, replies and the shutdown harvest. The coordinator
// streams jobs (a cell or a range) — one outstanding job per worker,
// next job dispatched on reply arrival — so load balances itself
// regardless of per-job cost. Fault handling:
//
//   * a worker that dies (EOF, failed write) or violates the protocol is
//     written off and its outstanding job is requeued onto the
//     surviving workers;
//   * a worker whose outstanding job overruns its cells' summed
//     wall_limit plus the watchdog grace is SIGKILLed and treated the
//     same;
//   * with streaming telemetry armed (telemetry_interval > 0), every
//     worker heartbeats on an interval — from its own loop, busy or
//     idle — and after each job; a worker not heard from for
//     heartbeat_stale_after — busy OR idle — is written off by
//     heartbeat age, catching workers that freeze BETWEEN jobs, which
//     the per-job watchdog cannot see;
//   * a written-off worker's SLOT is respawned (a fresh fork, same
//     fault-injection quota) after a capped exponential backoff, up to
//     max_respawns attempts per slot — transient churn shrinks the pool
//     only temporarily;
//   * if every worker is gone, every respawn budget is spent and jobs
//     remain, the coordinator runs the remainder in-process — a sharded
//     run degrades, it never loses cells (set fallback_in_process =
//     false to get a clean ProtocolError instead).
//
// The pool's counters count cells, not lines: a range of k schedules
// adds k to shard.cells_dispatched, shard.cells_requeued,
// shard.fallback_cells and worker.cells_served.
//
// A grid's merged Report is reassembled in grid order via Report::merge
// (keyed by cell_index) and is byte-identical (timing excluded) to an
// in-process run_batch of the same cells, because workers rebuild
// cells from the scenario registry and execute the very same run_cell()
// path. A search's ranges run through run_schedule_range
// (src/explore/explorer.h), the same code the in-process search uses.
//
// Settings: ShardSettings declares once what a caller hands the backend
// (shards, progress, telemetry, health, fault injection). BatchOptions
// and ExploreOptions inherit it, and ShardOptions adds the knobs only
// the pool reads, so a new setting is one field here plus the code that
// reads it.
#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/dist/wire.h"
#include "src/experiment/experiment.h"
#include "src/experiment/record.h"
#include "src/obs/spans.h"

namespace mpcn {

struct WorkerOptions {
  // Fault injection for coordinator tests: exit WITHOUT replying upon
  // receiving the max_cells-th job line (a cell or a range line),
  // simulating a worker crash with a job in flight. 0 = serve forever.
  int max_cells = 0;
  // Fault injection for the health layer: upon RECEIVING the
  // stop_after_cells-th job line (a grid cell, or a whole range of an
  // explore search), raise(SIGSTOP) before serving it — the worker
  // freezes holding a job whose watchdog deadline (its wall limit plus
  // grace) is far off, a silence only heartbeat staleness can detect. A
  // worker's first job is certain (every live worker is dispatched one
  // at the start), so 1 always freezes it. 0 = never.
  int stop_after_cells = 0;
  // Set: arm the heartbeat. The worker beats right after hello and
  // after every job and, when the interval is > 0, also every interval
  // from its own loop, busy or idle. Unset: no telemetry line at all.
  std::optional<std::chrono::milliseconds> heartbeat;
};

// Serve jobs over `io` until shutdown or EOF: write hello, then answer
// every cell line with a result line and every range line with a
// range_result line. Never crashes on bad input: unparsable lines are
// answered with an error line; a cell that fails to rebuild or execute
// yields a result whose record captures the error (for a range: one such
// record per schedule).
// The worker starts no thread: an armed heartbeat beats after hello and
// after each job, from inside a run at the lock-step controller's clock
// reads (src/obs/heartbeat.h), and while idle when LineIO::await_line
// times out, so every line it writes comes from its one thread.
void run_worker_loop(LineIO& io, const WorkerOptions& options = {});

// The coordinator's live view of one worker SLOT, fed by streaming
// telemetry and filled in as the run progresses. Slots persist across
// respawns (a fresh worker reuses its slot's entry). Sidecar-only,
// like everything in src/obs: the Report never sees it.
struct WorkerHealth {
  int slot = -1;
  std::int64_t heartbeats = 0;      // telemetry reports received
  std::int64_t last_seq = -1;       // highest heartbeat seq seen
  // Cells this slot answered for (a range reply counts its schedules).
  std::int64_t cells_served = 0;
  // Age of the last sign of life (any bytes received, or spawn) when
  // the slot was last examined: at write-off or teardown.
  std::int64_t last_heard_age_ms = -1;
  int respawns = 0;
  bool written_off = false;
  std::string write_off_reason;     // "" when never written off
  // Folded heartbeat deltas: merge()-reconstructed running totals of
  // the slot's process-local metrics (lost work of a dead worker stays
  // lost, exactly like its shutdown snapshot would be).
  MetricsSnapshot telemetry;
};

// What run and explore hand the sharded backend. Without shards every
// other field is ignored; none changes a report byte (a sharded report
// is the in-process one, and telemetry and fault injection are
// sidecar-only).
struct ShardSettings {
  // > 0: distribute over this many forked worker processes; 0 runs
  // in-process (run_batch, explore). run_sharded* need >= 1.
  int shards = 0;
  // stderr progress heartbeat: a ProgressMeter (src/obs/progress.h),
  // ticked per cell in-process and by the cells of each reply when
  // sharded; silent unless progress_allowed().
  bool progress = false;
  // Non-null: ask each worker for a MetricsSnapshot at shutdown (the
  // wire's opt-in metrics exchange) and append every snapshot received.
  // Workers that died mid-run contribute nothing — their counts are
  // lost with the process, exactly like their requeued cells' first
  // attempts.
  std::vector<MetricsSnapshot>* worker_metrics = nullptr;
  // Non-null: every worker records spans and arms its after-job beats,
  // and each live worker's span ring is harvested at shutdown
  // (`"trace":true` on the shutdown line) as one ProcessTrace per
  // delivering worker, pid = slot + 2 (pid 1 is the coordinator). A
  // forked worker shares the coordinator's trace_now_us origin, so the
  // clocks need no alignment. Feed the result plus the coordinator's
  // own dump_trace_json() to merge_trace_docs for one Perfetto-loadable
  // document.
  std::vector<ProcessTrace>* worker_traces = nullptr;
  // Non-null: filled with one WorkerHealth per slot at return.
  std::vector<WorkerHealth>* health = nullptr;
  // Streaming telemetry: > 0 arms every worker's heartbeat at this
  // interval. Workers also beat right after hello and after every job,
  // so >= 1 heartbeat arrives per worker even on an idle pool.
  std::chrono::milliseconds telemetry_interval{0};
  // Health write-off: with the heartbeat armed, a worker not heard from
  // (no bytes of any kind) for this long is presumed frozen and written
  // off — busy or idle. <= 0 disables; meaningless without
  // telemetry_interval (an unarmed worker is rightfully silent between
  // jobs). Choose a multiple of telemetry_interval with headroom for
  // scheduling noise.
  std::chrono::milliseconds heartbeat_stale_after{0};
  // Fault injection: slot i's worker takes worker_max_cells[i] and
  // worker_stop_after[i] as its WorkerOptions::max_cells and
  // stop_after_cells (missing entries = 0, never), counted in job lines
  // (a grid cell or a whole range of schedules). A respawned worker
  // inherits its slot's quotas.
  std::vector<int> worker_max_cells;
  std::vector<int> worker_stop_after;
};

// The pool's options: the shared settings plus the knobs only the pool
// reads.
struct ShardOptions : ShardSettings {
  ShardOptions() = default;
  explicit ShardOptions(const ShardSettings& settings)
      : ShardSettings(settings) {}

  // Watchdog: a worker whose outstanding job has run for the summed
  // wall_limit of its cells PLUS this grace is presumed hung, SIGKILLed,
  // and its job is requeued. Scaling with wall_limit means a cell the
  // user allowed to run five minutes is never killed after two.
  // <= 0 disables.
  std::chrono::milliseconds watchdog_grace{30'000};
  // Churn hardening: how many times each worker SLOT may be respawned
  // after a write-off (0 = never, pre-respawn behavior).
  int max_respawns = 2;
  // First respawn of a slot waits this long; each further attempt
  // doubles the wait, capped at one second — so a crash-looping worker
  // cannot hot-spin the coordinator.
  std::chrono::milliseconds respawn_backoff{25};
  // With the pool fully drained (all workers dead, all respawn budgets
  // spent) and cells unserved: true = run the remainder in-process
  // (never lose cells), false = throw ProtocolError (fail cleanly, e.g.
  // when in-process execution would mask a systemic worker problem).
  bool fallback_in_process = true;
  // Test seam: what a forked worker runs on its end of the socketpair.
  // Tests put a misbehaving worker here (one that echoes every line
  // back); every other caller keeps run_worker_loop.
  void (*worker_loop)(LineIO& io, const WorkerOptions& options) =
      run_worker_loop;
};

// Run `cells` across forked workers and merge the results into a
// grid-ordered Report. Requires wire-serializable cells stamped with
// cell_index == position (exactly what Experiment::cells() produces);
// throws ProtocolError otherwise. Per-cell execution errors are captured
// in the records, not thrown. The title is derive_report_title(cells,
// ""); run_batch applies a requested one.
Report run_sharded(const std::vector<ExperimentCell>& cells,
                   const ShardOptions& options);

// Run schedules [0, budget) of a random/PCT search across forked
// workers, as range lines of ceil(budget / (8 * shards)) schedules.
// `base` is the search's wire-serializable cell carrying schedule 0's
// ScheduleSpec (see run_schedule_range). Before each dispatch the pool
// asks wanted(first); false drops that range unrun (the caller's early
// stop). Each range's result — from a worker, or from an in-process run
// once the pool drains — goes to on_range(first, result) on the calling
// thread, exactly once per range that ran, in arrival order.
void run_sharded_search(
    const ExperimentCell& base, int budget, const ShardOptions& options,
    const std::function<bool(int first)>& wanted,
    const std::function<void(int first, RangeResult&& result)>& on_range);

}  // namespace mpcn
