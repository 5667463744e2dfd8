#include "src/experiment/batch_runner.h"

#include "src/dist/shard.h"
#include "src/obs/progress.h"

namespace mpcn {

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

Report run_batch(const std::vector<ExperimentCell>& cells,
                 const BatchOptions& options) {
  if (options.shards > 0) {
    Report report = run_sharded(cells, ShardOptions(options));
    report.title = derive_report_title(cells, options.title);
    return report;
  }
  Report report;
  report.title = derive_report_title(cells, options.title);
  if (cells.empty()) return report;
  report.records.reserve(cells.size());
  ProgressMeter meter(options.progress, "batch", "cells",
                      static_cast<int>(cells.size()));
  for (const ExperimentCell& cell : cells) {
    report.records.push_back(run_cell(cell));
    meter.tick();
  }
  return report;
}

}  // namespace mpcn
