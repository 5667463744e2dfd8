// k-set solvability frontier: watching the theorem happen, as one
// Experiment batch.
//
// For every t' in 1..5 and x in 1..3, in a 6-process system, runs k-set
// agreement for k = 1..6 through the engine with adversarial crash
// schedules, and reports which (t', x, k) cells solve and which stall.
// The claim is that k-set agreement is solvable in ASM(6, t', x) iff
// k > floor(t'/x): each row's first SOLVE sits at k = floor(t'/x) + 1.
// The staircase in the output IS the multiplicative power of consensus
// numbers.
//
// Every (t', x, k, seed) attempt is one ExperimentCell; the whole grid
// runs as a single batch and the table is read off the Report.
// Cells run lock-step, so the table is a pure function of the seeds.
// Exits 1 if any row's staircase is off the frontier. A cell that raised
// an error reads `error` and is off the frontier on either side of it:
// a stall must be a run that blocked, not one that threw.
//
// Usage:   ./build/examples/kset_frontier
#include <cstdio>
#include <string>
#include <vector>

#include "src/experiment/batch_runner.h"
#include "src/experiment/experiment.h"
#include "src/tasks/algorithms.h"
#include "src/tasks/task.h"

using namespace mpcn;

namespace {

constexpr int kN = 6;
constexpr int kMaxTPrime = 5;
constexpr int kMaxX = 3;
constexpr int kMaxK = kMaxTPrime + 1;
constexpr std::uint64_t kSeeds = 3;

// The adversary for one (t', x, k) cell. Below the frontier
// (k <= floor(t'/x), so k*x <= t'): the white-box propose trap — crash x
// simulators inside each of k input-agreement proposes (k*x <= t'
// crashes), blocking k simulated processes against a (k-1)-resilient
// source. At or above: seeded hazard crashes within the full budget t'.
CrashPlan adversary(int t_prime, int x, int k, std::uint64_t seed) {
  if (k <= t_prime / x) {
    std::vector<std::string> keys;
    for (int j = 0; j < k; ++j) keys.push_back("INPUT/" + std::to_string(j));
    return x == 1 ? CrashPlan::propose_trap(std::move(keys), 1, 2)
                  : CrashPlan::propose_trap(
                        std::move(keys), x, 1,
                        CrashPlan::TrapPoint::kOwnerElected);
  }
  return CrashPlan::hazard(0.002, t_prime, seed * 11 + 3);
}

const char* verdict(const RunRecord& r) {
  if (!r.error.empty()) return "error";
  if (r.timed_out || !r.outcome().all_correct_decided()) return "stall";
  return (!r.validated || r.valid) ? "SOLVE" : "viol!";
}

}  // namespace

int main() {
  // Candidate per (t', x, k): the trivial (k-1)-resilient k-set
  // algorithm, simulated in ASM(6, t', x). Legal (and correct) iff
  // k-1 >= floor(t'/x); legality checks are off so illegal cells run and
  // stall.
  std::vector<ExperimentCell> grid;
  std::vector<Value> inputs;
  for (int i = 0; i < kN; ++i) inputs.push_back(Value(10 + i));
  for (int t_prime = 1; t_prime <= kMaxTPrime; ++t_prime) {
    for (int x = 1; x <= kMaxX; ++x) {
      for (int k = 1; k <= kMaxK; ++k) {
        const std::vector<ExperimentCell> cells =
            Experiment::of(trivial_kset_algorithm(kN, k - 1))
                .label("t" + std::to_string(t_prime) + "/x" +
                       std::to_string(x) + "/k" + std::to_string(k))
                .in(ModelSpec{kN, t_prime, x})
                .with_task(std::make_shared<KSetAgreementTask>(k))
                .inputs(inputs)
                .seeds(1, kSeeds)
                .crashes([t_prime, x, k](const ModelSpec&,
                                         std::uint64_t seed) {
                  return adversary(t_prime, x, k, seed);
                })
                // Solving cells need a few thousand steps; the budget
                // bounds the stalling (illegal) cells, which burn all of
                // it.
                .step_limit(120'000)
                .check_legality(false)
                .cells();
        grid.insert(grid.end(), cells.begin(), cells.end());
      }
    }
  }

  BatchOptions batch;
  batch.title = "kset_frontier";
  const Report report = run_batch(grid, batch);

  std::printf("k-set agreement in ASM(%d, t', x) — frontier k* = "
              "floor(t'/x)+1   (%zu cells)\n\n",
              kN, grid.size());
  std::printf("%-4s %-4s %-12s", "t'", "x", "floor(t'/x)");
  for (int k = 1; k <= kMaxK; ++k) std::printf("  k=%d  ", k);
  std::printf("\n");
  std::size_t idx = 0;
  int off_frontier = 0;
  for (int t_prime = 1; t_prime <= kMaxTPrime; ++t_prime) {
    for (int x = 1; x <= kMaxX; ++x) {
      const int fl = t_prime / x;
      std::printf("%-4d %-4d %-12d", t_prime, x, fl);
      for (int k = 1; k <= kMaxK; ++k) {
        // Worst result over the seeds: a cell counts as solving only if
        // every adversarial schedule solved it, and an error on any seed
        // makes it an error.
        std::string cell = "SOLVE";
        for (std::uint64_t s = 0; s < kSeeds; ++s) {
          const std::string r = verdict(report.records[idx++]);
          if (cell == "SOLVE" || r == "error") cell = r;
        }
        if (cell == "error" || (cell == "SOLVE") != (k > fl)) ++off_frontier;
        std::printf(" %-6s", cell.c_str());
      }
      std::printf("   <- solvable iff k >= %d\n", fl + 1);
    }
  }
  std::printf(
      "\nReading: 'SOLVE' cells start exactly at k = floor(t'/x)+1; cells\n"
      "left of the frontier stall (the algorithm cannot exist; the natural\n"
      "candidate blocks under adversarial crashes).\n");
  if (off_frontier > 0) {
    std::printf("%d cell(s) off the frontier\n", off_frontier);
    return 1;
  }
  return 0;
}
