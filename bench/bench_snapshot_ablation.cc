// ABL-1 — snapshot substrate ablation.
//
// The same write+snapshot workload over the two SnapshotObject
// implementations, the two values of the `mem` axis: the one-step model
// primitive and the wait-free Afek construction (register steps,
// helping). The Afek column is the price of wait-freedom from registers;
// the paper's simulations assume the primitive.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/snapshot/afek_snapshot.h"
#include "src/snapshot/primitive_snapshot.h"

namespace {

using namespace mpcn;
using namespace mpcn::benchutil;

enum class Kind { kPrimitive, kAfek };

std::shared_ptr<SnapshotObject> make_snapshot(Kind kind, int width) {
  switch (kind) {
    case Kind::kPrimitive:
      return std::make_shared<PrimitiveSnapshot>(width, false);
    case Kind::kAfek:
      return std::make_shared<AfekSnapshot>(width, false);
  }
  return nullptr;
}

void run_workload(benchmark::State& state, Kind kind) {
  const int writers = static_cast<int>(state.range(0));
  const int rounds = 50;
  for (auto _ : state) {
    auto snap = make_snapshot(kind, writers);
    std::vector<Program> p;
    for (int w = 0; w < writers; ++w) {
      p.push_back([snap, w, rounds](ProcessContext& ctx) {
        for (int r = 0; r < rounds; ++r) {
          snap->write(ctx, w, Value(r));
          benchmark::DoNotOptimize(snap->snapshot(ctx));
        }
        ctx.decide(Value(0));
      });
    }
    Outcome out =
        run_execution(std::move(p), int_inputs(writers), free_mode());
    if (out.timed_out) state.SkipWithError("timed out");
  }
  state.SetItemsProcessed(state.iterations() * writers * rounds * 2);
  state.counters["writers"] = writers;
}

void BM_PrimitiveSnapshot(benchmark::State& state) {
  run_workload(state, Kind::kPrimitive);
}
void BM_AfekSnapshot(benchmark::State& state) {
  run_workload(state, Kind::kAfek);
}

// Widths 16/32 are where the payload representation dominates: an Afek
// cell carries a width-n view list, so a collect moves O(n^2) payload
// under deep-copy Values and O(n) refcount bumps under COW Values.
BENCHMARK(BM_PrimitiveSnapshot)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AfekSnapshot)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
