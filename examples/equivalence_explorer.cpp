// Equivalence explorer: the Section 5.4 class structure, interactively —
// analytic tables plus an optional empirical confirmation batch on the
// Experiment API.
//
// Prints, for a given failure bound t' and system size n, the partition
// of the models ASM(n, t', x), x = 1..n, into computability classes, the
// canonical representative of each class, and the multiplicative-power
// windows t' in [t*x, t*x + x - 1]. With --confirm (automatic for small
// n), each class is then *run*: the canonical trivial k-set algorithm
// (k = power+1) is simulated in the class representative ASM(n, t', x_lo)
// as one Experiment cell per class, fanned out as a batch.
//
// Usage:   ./build/examples/equivalence_explorer [t_prime] [n] [--confirm]
// Default: t' = 8, n = 12 (the paper's worked example).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/experiment/batch_runner.h"
#include "src/experiment/experiment.h"
#include "src/tasks/task.h"

using namespace mpcn;

int main(int argc, char** argv) {
  bool confirm_flag = false;
  std::vector<int> numeric;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--confirm") == 0) {
      confirm_flag = true;
    } else {
      numeric.push_back(std::atoi(argv[i]));
    }
  }
  const int t_prime = numeric.size() > 0 ? numeric[0] : 8;
  const int n = numeric.size() > 1 ? numeric[1] : 12;
  if (t_prime < 1 || n <= t_prime) {
    std::fprintf(stderr, "need 1 <= t' < n (got t'=%d, n=%d)\n", t_prime, n);
    return 1;
  }

  std::printf("Equivalence classes of ASM(%d, %d, x), x = 1..%d\n", n,
              t_prime, n);
  std::printf("(Section 5.4: all models with the same floor(t'/x) have the "
              "same power)\n\n");
  std::printf("%-9s %-14s %-14s %-22s\n", "power", "x range", "canonical",
              "solvable k-set tasks");
  for (const EquivalenceClass& c : classes_for_t(n, t_prime)) {
    char range[32];
    if (c.x_lo == c.x_hi) {
      std::snprintf(range, sizeof(range), "x = %d", c.x_lo);
    } else {
      std::snprintf(range, sizeof(range), "%d <= x <= %d", c.x_lo, c.x_hi);
    }
    std::printf("%-9d %-14s %-14s k >= %d\n", c.power, range,
                c.canonical.to_string().c_str(), c.power + 1);
  }

  std::printf("\nMultiplicative-power windows (ASM(n,t',x) ~ ASM(n,t,1) iff "
              "t' in [t*x, t*x+x-1]):\n");
  for (int x = 2; x <= std::min(n, 6); ++x) {
    const int t = t_prime / x;
    const TWindow w = equivalent_t_window(t, x);
    std::printf("  x = %d: ASM(n,t',%d) ~ ASM(n,%d,1) for t' in [%d, %d]"
                "%s\n",
                x, x, t, w.lo, w.hi,
                (t_prime >= w.lo && t_prime <= w.hi) ? "   <- includes t'"
                                                     : "");
  }

  std::printf("\nHierarchy consequences for t' = %d:\n", t_prime);
  std::printf("  consensus (k=1) solvable iff x > %d\n", t_prime);
  for (int k = 2; k <= 4; ++k) {
    // smallest x with floor(t'/x) < k  <=>  x >= t'/k + 1
    int x_min = t_prime / k + 1;
    if (x_min <= n) {
      std::printf("  %d-set agreement solvable iff x >= %d\n", k, x_min);
    }
  }

  // ------------------------------------------------- empirical confirmation
  // One Experiment cell per class: the canonical trivial k-set algorithm
  // simulated in the hardest member (smallest x), one seeded lock-step run
  // each. Auto-enabled for small systems; larger ones need the explicit
  // flag.
  if (!confirm_flag && n > 8) {
    std::printf(
        "\n(analytic tables only; pass --confirm to run one simulation per "
        "class)\n");
    return 0;
  }
  std::vector<ExperimentCell> grid;
  for (const EquivalenceClass& c : classes_for_t(n, t_prime)) {
    std::vector<Value> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(Value(10 + i));
    const std::vector<ExperimentCell> one =
        Experiment::named("trivial_kset", ModelSpec{n, c.power, 1})
            .in(ModelSpec{n, t_prime, c.x_lo})
            .inputs(inputs)
            .cells();
    grid.insert(grid.end(), one.begin(), one.end());
  }
  BatchOptions batch;
  batch.title = "equivalence_explorer";
  const Report report = run_batch(grid, batch);

  std::printf("\nEmpirical confirmation (one run per class):\n");
  std::printf("%-16s %-18s %10s %10s %8s\n", "model", "task", "wall_ms",
              "steps", "result");
  for (const RunRecord& r : report.records) {
    std::printf("%-16s %-18s %10.2f %10llu %8s\n",
                r.target.to_string().c_str(), r.task.c_str(), r.wall_ms,
                static_cast<unsigned long long>(r.steps),
                r.ok() ? "solved" : "FAILED");
  }
  std::printf("\n%s\n", report.summary().c_str());
  return report.all_ok() ? 0 : 1;
}
