// FIG3 — sim_snapshot (Figure 3).
//
// A snapshot-heavy simulated algorithm: every sim_snapshot resolves one
// safe-agreement object among the N simulators (propose under mutex1 +
// decide). This is the dominant cost of the BG simulation; the series
// shows how it scales with the simulator count.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/bg_engine.h"
#include "src/experiment/experiment.h"

namespace {

using namespace mpcn;
using namespace mpcn::benchutil;

SimulatedAlgorithm snapshot_heavy(int n, int snapshots) {
  SimulatedAlgorithm a;
  a.model = ModelSpec{n, 1, 1};
  for (int j = 0; j < n; ++j) {
    a.programs.push_back([snapshots](SimContext& sc) {
      sc.write(sc.input());
      for (int s = 0; s < snapshots; ++s) (void)sc.snapshot();
      sc.decide(sc.input());
    });
  }
  return a;
}

void BM_SimSnapshot(benchmark::State& state) {
  const int n_simulators = static_cast<int>(state.range(0));
  const int snapshots = 25;
  const int n_sim = 2;
  for (auto _ : state) {
    SimulatedAlgorithm a = snapshot_heavy(n_sim, snapshots);
    Outcome out = Experiment::of(a)
                      .in(ModelSpec{n_simulators, 1, 1})
                      .inputs(int_inputs(n_simulators))
                      .base_options(free_mode())
                      .run()
                      .outcome();
    if (out.timed_out) state.SkipWithError("timed out");
  }
  state.SetItemsProcessed(state.iterations() * snapshots * n_sim);
  state.counters["simulators"] = n_simulators;
}
BENCHMARK(BM_SimSnapshot)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
