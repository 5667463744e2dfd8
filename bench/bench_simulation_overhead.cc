// ABL-2 — the cost of being simulated, on the Experiment API.
//
// Part 1: the same algorithm (trivial k-set) executed natively in its own
// model versus through the generalized engine in equivalent models.
// Reports wall time and model-step counts; the step ratio is the
// simulation's intrinsic multiplier (every simulated snapshot becomes a
// safe-agreement resolution among all simulators).
//
// Part 2: the payload cost of a seeded lock-step engine grid, per memory
// backend (the price of moving Values, with the schedule held fixed).
// bench_scheduler_handoff prices the scheduler itself.
//
// Cells run SEQUENTIALLY (threads = 1): the rows are a timing comparison,
// so they must not compete for cores. `--json[=path]` emits the combined
// Report (default BENCH_simulation_overhead.json).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/experiment/batch_runner.h"
#include "src/experiment/experiment.h"
#include "src/tasks/algorithms.h"
#include "src/tasks/task.h"

using namespace mpcn;
using namespace mpcn::benchutil;

int main(int argc, char** argv) {
  SimulatedAlgorithm a = trivial_kset_algorithm(4, 1);

  // ---- Part 1: direct vs simulated, free mode -------------------------
  // Row 0 runs natively; rows 1.. through the engine in equivalent
  // models of growing size and object strength.
  Experiment e = Experiment::of(a)
                     .label("simulation_overhead")
                     .direct()
                     .in_each({ModelSpec{4, 1, 1}, ModelSpec{4, 3, 2},
                               ModelSpec{6, 1, 1}, ModelSpec{6, 5, 3}})
                     .with_task(std::make_shared<KSetAgreementTask>(2))
                     .input_pool(int_inputs(6, 10))
                     .base_options(free_mode());

  BatchOptions batch;
  batch.threads = 1;  // timing rows must not compete for cores
  batch.title = "simulation_overhead";
  Report report = run_batch(e.cells(), batch);

  std::printf("== Simulation overhead: trivial 2-set source %s\n",
              a.model.to_string().c_str());
  std::printf("%-12s %-14s %10s %10s %12s\n", "kind", "model", "wall_ms",
              "steps", "step_ratio");
  const double base_steps =
      report.records.empty() ? 0
                             : static_cast<double>(report.records[0].steps);
  for (const RunRecord& r : report.records) {
    std::printf("%-12s %-14s %10.2f %10llu %11.1fx%s\n", to_string(r.mode),
                r.target.to_string().c_str(), r.wall_ms,
                static_cast<unsigned long long>(r.steps),
                base_steps > 0 ? static_cast<double>(r.steps) / base_steps
                               : 0.0,
                r.ok() ? "" : "  [INVALID]");
  }
  std::printf(
      "\nExpected shape: simulation multiplies step counts by the\n"
      "agreement-resolution cost (grows with simulator count N and with\n"
      "x-safe-agreement width); all rows remain valid 2-set outcomes.\n");

  // ---- Part 2: payload cost on a seeded lock-step engine grid ---------
  // Simulated trivial k-set under a seeded schedule: the step sequence is
  // a pure function of the seed (byte-identical grant traces across Value
  // representations — the steps column must never move in a perf PR), so
  // wall-per-step isolates the cost of MOVING the payloads. The afek rows
  // are the payload-heavy regime: MEM is the register-granular Afek
  // construction, so every collect copies N cells each holding an n-pair
  // list plus a width-N view of such lists — the O(n^2)-per-step tax the
  // COW Value representation removes.
  constexpr std::uint64_t kPayloadSeedLo = 1, kPayloadSeedHi = 2;
  std::printf("\n== Payload cost: seeded lock-step engine grid "
              "(trivial 2-set, seeds %llu..%llu)\n",
              static_cast<unsigned long long>(kPayloadSeedLo),
              static_cast<unsigned long long>(kPayloadSeedHi));
  std::printf("%-14s %-10s %10s %12s %12s\n", "target", "mem", "wall_ms",
              "steps", "us_per_step");
  for (const MemKind mem_kind : {MemKind::kPrimitive, MemKind::kAfek}) {
    for (const ModelSpec& target : {ModelSpec{4, 1, 1}, ModelSpec{6, 1, 1}}) {
      ExecutionOptions base;
      base.mode = SchedulerMode::kLockstep;
      base.step_limit = 10'000'000;
      Report part =
          run_batch(Experiment::of(a)
                        .label("simulation_overhead")
                        .in(target)
                        .with_task(std::make_shared<KSetAgreementTask>(2))
                        .input_pool(int_inputs(4, 10))
                        .seeds(kPayloadSeedLo, kPayloadSeedHi)
                        .mem(mem_kind)
                        .base_options(base)
                        .cells(),
                    batch);
      const double wall = part.total_wall_ms();
      const std::uint64_t steps = part.total_steps();
      std::printf("%-14s %-10s %10.1f %12llu %12.2f%s\n",
                  target.to_string().c_str(), to_string(part.records[0].mem),
                  wall, static_cast<unsigned long long>(steps),
                  steps > 0 ? wall * 1000.0 / static_cast<double>(steps) : 0.0,
                  part.all_ok() ? "" : "  [INVALID]");
      for (RunRecord& r : part.records) {
        report.records.push_back(std::move(r));
      }
    }
  }

  std::printf("\n%s\n", report.summary().c_str());
  const bool json_ok = maybe_write_report(report, argc, argv);
  return report.all_ok() && json_ok ? 0 : 1;
}
