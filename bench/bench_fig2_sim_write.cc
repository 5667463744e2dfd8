// FIG2 — sim_write (Figure 2).
//
// A write-heavy simulated algorithm (each simulated process performs W
// writes, one snapshot, then decides) run under the engine with N
// simulators in ASM(N, 1, 1). Dominated by the Figure 2 path: local
// (value, seq) update + MEM[i] publication.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/bg_engine.h"
#include "src/experiment/experiment.h"

namespace {

using namespace mpcn;
using namespace mpcn::benchutil;

SimulatedAlgorithm write_heavy(int n, int writes) {
  SimulatedAlgorithm a;
  a.model = ModelSpec{n, 1, 1};
  for (int j = 0; j < n; ++j) {
    a.programs.push_back([writes](SimContext& sc) {
      for (int w = 0; w < writes; ++w) sc.write(Value(w));
      (void)sc.snapshot();
      sc.decide(sc.input());
    });
  }
  return a;
}

void BM_SimWrite(benchmark::State& state) {
  const int n_simulators = static_cast<int>(state.range(0));
  const int writes = 200;
  const int n_sim = 2;  // two simulated processes keep the focus on writes
  for (auto _ : state) {
    SimulatedAlgorithm a = write_heavy(n_sim, writes);
    Outcome out = Experiment::of(a)
                      .in(ModelSpec{n_simulators, 1, 1})
                      .inputs(int_inputs(n_simulators))
                      .base_options(free_mode())
                      .run()
                      .outcome();
    if (out.timed_out) state.SkipWithError("timed out");
  }
  state.SetItemsProcessed(state.iterations() * writes * n_sim);
  state.counters["simulators"] = n_simulators;
}
BENCHMARK(BM_SimWrite)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
