// SCHED-1 — the price of one step-token handoff, by thread count.
//
// The step_churn registry scenario (2001 register writes per process —
// input plus 2000 rounds — nothing else) makes every model step one
// token handoff, so wall time divided by steps is the scheduler's
// per-handoff cost. The sweep runs 2..8 lock-step threads; every thread
// is a fiber on one OS thread and a handoff is at most one context
// switch, so the µs/step column should stay flat as threads grow.
//
// Cells run SEQUENTIALLY (threads = 1): rows are a timing comparison.
// `--json[=path]` emits the Report (default BENCH_scheduler_handoff.json);
// each record carries its scheduler mode, so trajectories across commits
// compare like for like.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/experiment/batch_runner.h"
#include "src/experiment/experiment.h"

using namespace mpcn;
using namespace mpcn::benchutil;

int main(int argc, char** argv) {
  constexpr std::uint64_t kSeedLo = 1, kSeedHi = 2;

  BatchOptions batch;
  batch.threads = 1;
  batch.title = "scheduler_handoff";
  Report report;
  report.title = batch.title;

  std::printf("== Scheduler handoff: step_churn, seeds %llu..%llu\n",
              static_cast<unsigned long long>(kSeedLo),
              static_cast<unsigned long long>(kSeedHi));
  std::printf("%-8s %10s %12s %12s\n", "threads", "wall_ms", "steps",
              "us_per_step");
  bool all_ok = true;
  for (int n : {2, 3, 4, 6, 8}) {
    ExecutionOptions base;
    base.mode = SchedulerMode::kLockstep;
    base.step_limit = 10'000'000;
    const Report part =
        run_batch(Experiment::named("step_churn", ModelSpec{n, 0, 1})
                      .direct()
                      .input_pool(int_inputs(n, 0))
                      .seeds(kSeedLo, kSeedHi)
                      .base_options(base)
                      .cells(),
                  batch);
    all_ok = all_ok && part.all_ok();
    const double wall = part.total_wall_ms();
    const std::uint64_t steps = part.total_steps();
    std::printf("%-8d %10.1f %12llu %12.3f\n", n, wall,
                static_cast<unsigned long long>(steps),
                steps > 0 ? wall * 1000.0 / static_cast<double>(steps) : 0.0);
    for (const RunRecord& r : part.records) report.records.push_back(r);
  }

  std::printf("\n%s\n", report.summary().c_str());
  const bool json_ok = maybe_write_report(report, argc, argv);
  return all_ok && json_ok ? 0 : 1;
}
