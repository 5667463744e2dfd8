// MAIN — the solvability frontier (the main theorem as a figure), on the
// Experiment API.
//
// For each (t', x) over a grid, k-set agreement is solvable in
// ASM(n, t', x) iff k > ⌊t'/x⌋. Two series per cell:
//   * k = ⌊t'/x⌋ + 1 ("at frontier"): must SOLVE — we run the simulation
//     of the canonical trivial algorithm with adversarial crashes at the
//     full budget t' and report solved/failed;
//   * k = ⌊t'/x⌋ ("below frontier", when >= 1): must FAIL — no correct
//     algorithm exists; we demonstrate on the natural (illegal)
//     candidate — the trivial (k-1)-resilient algorithm simulated with
//     legality checks off — using the white-box propose-trap adversary:
//     crash x simulators inside each of k input-agreement proposes
//     (budget k*x <= t'), blocking k simulated processes where the
//     algorithm tolerates only k-1.
// The crossover row-by-row is the paper's multiplicative-power claim.
//
// The whole (t', x, k, seed) grid expands into one cell vector and runs
// as one parallel batch; `--json[=path]` emits the Report
// (default BENCH_frontier_grid.json). Cells run lock-step, so the
// verdict table is a pure function of the seeds.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/experiment/batch_runner.h"
#include "src/experiment/experiment.h"
#include "src/tasks/algorithms.h"
#include "src/tasks/task.h"

using namespace mpcn;
using namespace mpcn::benchutil;

namespace {

constexpr int kN = 6;  // processes per model

CrashPlan below_frontier_adversary(int x, int k) {
  std::vector<std::string> keys;
  for (int j = 0; j < k; ++j) keys.push_back("INPUT/" + std::to_string(j));
  // x = 1: crash the first proposer between its level-1 write and its
  // stabilizing write. x > 1: crash every elected owner right after its
  // test&set win, before any SET_LIST scan step.
  if (x == 1) return CrashPlan::propose_trap(std::move(keys), 1, 2);
  return CrashPlan::propose_trap(std::move(keys), x, 1,
                                 CrashPlan::TrapPoint::kOwnerElected);
}

// One (t', x, k) series: the trivial (k-1)-resilient source simulated in
// ASM(kN, t', x) across `seed_count` seeds, frontier cells under hazard
// crashes, below-frontier cells under the white-box trap.
std::vector<ExperimentCell> series_cells(int t_prime, int x, int k,
                                         bool trap, std::uint64_t seed_count) {
  return Experiment::of(trivial_kset_algorithm(kN, k - 1))
      .label("t" + std::to_string(t_prime) + "/x" + std::to_string(x) + "/k" +
             std::to_string(k) + (trap ? "/below" : "/frontier"))
      .in(ModelSpec{kN, t_prime, x})
      .with_task(std::make_shared<KSetAgreementTask>(k))
      .inputs(int_inputs(kN, 10))
      .seeds(1, seed_count)
      .crashes([t_prime, x, k, trap](const ModelSpec&, std::uint64_t seed) {
        return trap ? below_frontier_adversary(x, k)
                    : CrashPlan::hazard(0.002, t_prime, seed * 7 + t_prime);
      })
      // Solving cells finish in a few thousand steps; the budget exists to
      // bound the *stall* cells, which burn it fully, so keep it modest.
      .step_limit(120'000)
      .check_legality(false)  // we *want* to run illegal attempts below
      .cells();
}

const char* verdict(const RunRecord& r) {
  if (!r.error.empty()) return "error";
  if (r.timed_out) return "timeout";
  if (!r.outcome().all_correct_decided()) return "stuck";
  if (r.validated && !r.valid) return "violation";
  return "solved";
}

}  // namespace

int main(int argc, char** argv) {
  struct Series {
    int t_prime, x, k;
    bool trap;
    std::size_t start, count;
  };
  std::vector<ExperimentCell> grid;
  std::vector<Series> series;
  for (int t_prime = 1; t_prime <= 5; ++t_prime) {
    for (int x = 1; x <= 3; ++x) {
      const int fl = t_prime / x;
      std::vector<ExperimentCell> cells =
          series_cells(t_prime, x, fl + 1, false, 3);
      series.push_back(Series{t_prime, x, fl + 1, false, grid.size(),
                              cells.size()});
      grid.insert(grid.end(), cells.begin(), cells.end());
      if (fl >= 1) {
        // The trap adversary is deterministic (white-box), so two seeds
        // are ample to witness the stall; stall cells burn their whole
        // step budget, so the count bounds the bench's runtime.
        cells = series_cells(t_prime, x, fl, true, 2);
        series.push_back(
            Series{t_prime, x, fl, true, grid.size(), cells.size()});
        grid.insert(grid.end(), cells.begin(), cells.end());
      }
    }
  }

  BatchOptions batch;
  batch.title = "frontier_grid";
  const Report report = run_batch(grid, batch);

  std::printf("== Solvability frontier in ASM(%d, t', x): k-set agreement\n",
              kN);
  std::printf("   claim: solvable iff k > floor(t'/x)  (%zu cells)\n\n",
              grid.size());
  std::printf("%-5s %-3s %-10s %-22s %-22s\n", "t'", "x", "floor(t'/x)",
              "k=floor+1 (expect ok)", "k=floor (expect fail)");
  for (std::size_t s = 0; s < series.size();) {
    const Series& front = series[s];
    // At the frontier: every adversarial seed must solve.
    int solved = 0;
    for (std::size_t i = 0; i < front.count; ++i) {
      if (std::string(verdict(report.records[front.start + i])) == "solved") {
        ++solved;
      }
    }
    char at_front[32];
    std::snprintf(at_front, sizeof(at_front), "%d/%zu solved", solved,
                  front.count);
    // Below the frontier: the trap adversary should produce a
    // deterministic failure witness on some seed.
    char below[32];
    std::snprintf(below, sizeof(below), "n/a (floor=0)");
    std::size_t next = s + 1;
    if (next < series.size() && series[next].trap &&
        series[next].t_prime == front.t_prime &&
        series[next].x == front.x) {
      const Series& b = series[next];
      const char* failure = "none-found";
      for (std::size_t i = 0; i < b.count; ++i) {
        const char* r = verdict(report.records[b.start + i]);
        if (std::string(r) != "solved") {
          failure = r;
          break;
        }
      }
      std::snprintf(below, sizeof(below), "%s", failure);
      ++next;
    }
    std::printf("%-5d %-3d %-10d %-22s %-22s\n", front.t_prime, front.x,
                front.t_prime / front.x, at_front, below);
    s = next;
  }
  std::printf(
      "\nExpected shape: left column all 'N/N solved'; right column a\n"
      "failure witness ('timeout'/'stuck'/'violation') wherever floor >= 1\n"
      "(impossibility is witnessed, not proven, by adversarial search).\n");
  const bool json_ok = maybe_write_report(report, argc, argv);
  return json_ok ? 0 : 1;
}
