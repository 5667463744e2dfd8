// Quickstart: the headline use of the multiplicative power theorem,
// through the unified Experiment API.
//
// Scenario: you have 8 processes, up to 5 of which may crash, and your
// hardware gives you consensus-number-3 objects (3-ported consensus) —
// the model ASM(8, 5, 3). Can you solve 2-set agreement?
//
// The paper says yes: ⌊5/3⌋ = 1, so ASM(8,5,3) ≃ ASM(8,1,1), and 2-set
// agreement is solvable 1-resiliently in read/write. The library makes
// this constructive: take the textbook 1-resilient algorithm for
// ASM(8,1,1) and run it in ASM(8,5,3) through the generalized BG engine —
// here across a whole seed batch, with the adversary at full budget,
// ending in one structured JSON report.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "src/experiment/batch_runner.h"
#include "src/experiment/experiment.h"
#include "src/tasks/task.h"

using namespace mpcn;

int main() {
  const ModelSpec have{8, 5, 3};  // what the system gives us
  std::printf("target model      : %s (power index %d)\n",
              have.to_string().c_str(), have.power());
  std::printf("canonical form    : %s\n",
              have.canonical().to_string().c_str());

  // 1. The source algorithm, by registry name: the trivial (t+1)-set
  //    agreement algorithm for the canonical model ASM(8, 1, 1). named()
  //    also adopts the scenario's canonical task (2-set agreement).
  Experiment experiment = Experiment::named("trivial_kset", have.canonical());
  std::printf("source algorithm  : 2-set agreement for %s\n",
              have.canonical().to_string().c_str());

  // 2..4. One builder chain: run it in ASM(8,5,3) through the engine,
  //    each process proposing its own value, across 8 reproducible
  //    lock-step schedules, with 5 crashes injected per run — the full
  //    adversary budget of the target model.
  std::vector<Value> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(Value(1000 + i));
  Report report =
      experiment.in(have)
          .inputs(inputs)
          .seeds(1, 8)
          .crashes([](const ModelSpec& m, std::uint64_t seed) {
            return CrashPlan::hazard(0.001, /*max_crashes=*/m.t, seed * 7);
          })
          .step_limit(2'000'000)
          .run_all();

  // 5. Inspect one run in detail...
  const RunRecord& rec = report.records.front();
  std::printf("\nper-process outcomes (seed %llu):\n",
              static_cast<unsigned long long>(rec.seed));
  for (int i = 0; i < 8; ++i) {
    const auto& d = rec.decisions[static_cast<std::size_t>(i)];
    std::printf("  q%d: %-10s %s\n", i,
                rec.crashed[static_cast<std::size_t>(i)] ? "CRASHED" : "ok",
                d ? d->to_string().c_str() : "(no decision)");
  }

  // ...and the batch as a whole, machine-readably.
  std::printf("\n%s\n", report.summary().c_str());
  std::printf("\nfirst record as JSON:\n%s\n",
              rec.to_json().dump(2).c_str());
  std::printf("\n2-set agreement: %s\n",
              report.all_ok()
                  ? "SOLVED in every run (all correct processes decided "
                    "<= 2 values)"
                  : "FAILED in at least one run - see report");
  return report.all_ok() ? 0 : 1;
}
