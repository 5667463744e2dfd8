// Colored tasks (Section 5.5): renaming through the colored engine, as a
// registry-named Experiment.
//
// Colored tasks forbid two processes from adopting the same simulated
// decision (renaming: all names distinct), so the colorless "adopt the
// first decision" rule is unsound. The colored engine instead claims
// simulated processes through shared test&set objects: each simulator
// decides the name of a *different* simulated process.
//
// Here: the classic wait-free snapshot renaming algorithm for 6 processes
// (names in [1, 11]) is simulated by 4 simulators in ASM(4, 1, 2). The
// registry knows "snapshot_renaming" is colored, so .in(target) routes
// through the colored engine automatically. The simulators end up with
// pairwise distinct names.
//
// Usage:   ./build/examples/colored_renaming
#include <cstdio>
#include <set>

#include "src/experiment/experiment.h"
#include "src/tasks/task.h"

using namespace mpcn;

int main() {
  const int n_src = 6;
  // Declared resilience t = 1 (the algorithm is wait-free, so any t is
  // sound); Section 5.5 needs n >= max(n', (n'-t') + t) = 4 <= 6.
  const ModelSpec source{n_src, 1, 1};
  const ModelSpec target{4, 1, 2};
  std::printf("source : snapshot renaming, %d processes, names in [1, %d]\n",
              n_src, 2 * n_src - 1);
  std::printf("target : %s (colored simulation, x' = %d > 1)\n\n",
              target.to_string().c_str(), target.x);

  std::vector<Value> inputs;
  for (int i = 0; i < target.n; ++i) inputs.push_back(Value(i));
  RunRecord rec = Experiment::named("snapshot_renaming", source)
                      .in(target)  // colored engine: registry flag
                      .inputs(inputs)
                      .seed(7)
                      .step_limit(3'000'000)
                      .run();

  std::set<std::int64_t> names;
  bool ok = !rec.timed_out;
  for (int i = 0; i < target.n; ++i) {
    const auto& d = rec.decisions[static_cast<std::size_t>(i)];
    if (!d) {
      std::printf("  simulator q%d: (no decision)\n", i);
      ok = false;
      continue;
    }
    const std::int64_t j = d->at(0).as_int();
    const std::int64_t name = d->at(1).as_int();
    std::printf("  simulator q%d: claimed simulated p%lld, new name %lld\n",
                i, static_cast<long long>(j), static_cast<long long>(name));
    if (!names.insert(name).second) {
      std::printf("    ^ DUPLICATE NAME — colored rule violated!\n");
      ok = false;
    }
  }
  RenamingCheck check{2 * n_src - 1};
  std::vector<std::optional<Value>> just_names;
  for (const auto& d : rec.decisions) {
    just_names.push_back(d ? std::optional<Value>(d->at(1)) : std::nullopt);
  }
  std::string why;
  ok = ok && check.validate(just_names, &why);
  std::printf("\n%s\n", ok ? "All simulators hold pairwise-distinct names "
                            "from the source name space."
                           : ("FAILED: " + why).c_str());
  std::printf("\nrecord as JSON:\n%s\n", rec.to_json().dump(2).c_str());
  return ok ? 0 : 1;
}
