#include "src/experiment/batch_runner.h"

#include <atomic>
#include <thread>

#include "src/dist/shard.h"
#include "src/obs/progress.h"

namespace mpcn {

BatchRunner::BatchRunner(BatchOptions options) : options_(std::move(options)) {}

std::string derive_report_title(const std::vector<ExperimentCell>& cells,
                                const std::string& requested) {
  if (!requested.empty()) return requested;
  // Derive from the first labeled cell so report files keyed by title
  // do not collide across experiments.
  for (const ExperimentCell& c : cells) {
    if (!c.scenario.empty()) return c.scenario;
  }
  return "batch";
}

Report BatchRunner::run(const std::vector<ExperimentCell>& cells) const {
  check_threads_with_shards(options_, options_.threads, "cells", "backend");
  if (options_.shards > 0) {
    Report report = run_sharded(cells, ShardOptions(options_));
    report.title = derive_report_title(cells, options_.title);
    return report;
  }
  Report report;
  report.title = derive_report_title(cells, options_.title);
  report.records.resize(cells.size());
  if (cells.empty()) return report;

  int pool = options_.threads;
  if (pool <= 0) {
    pool = static_cast<int>(std::thread::hardware_concurrency());
    if (pool <= 0) pool = 1;
  }
  pool = std::min<int>(pool, static_cast<int>(cells.size()));

  // Work-stealing by atomic counter: each worker claims the next cell
  // index and writes into its pre-assigned slot, so the record order is
  // the grid order no matter how workers interleave.
  std::atomic<std::size_t> next{0};
  ProgressMeter meter(options_.progress, "batch", "cells",
                      static_cast<int>(cells.size()));
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= cells.size()) return;
      report.records[i] = run_cell(cells[i]);
      meter.tick();
    }
  };

  if (pool == 1) {
    worker();
    return report;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(pool));
  for (int w = 0; w < pool; ++w) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();
  return report;
}

Report run_batch(const std::vector<ExperimentCell>& cells,
                 BatchOptions options) {
  return BatchRunner(std::move(options)).run(cells);
}

}  // namespace mpcn
