// The Figure 7 pipeline, end to end, as one chain Experiment.
//
// Takes one algorithm (2-set agreement for ASM(4,1,1)) and runs it in
// every model of the equivalence chain to ASM(5,3,2):
//
//   ASM(4,1,1) -> ASM(2,1,1) -> ASM(5,1,1) -> ASM(5,3,2)
//
// printing the decisions at every hop. Each hop is a *different* system
// model (different process count, failure bound, object strength), yet
// the same source algorithm solves the same task in all of them — that
// is the equivalence the paper proves. through_chain_to() expands the
// chain into one cell per hop; the hops run as one batch and the
// per-hop task verdicts land in the Report.
//
// Usage:   ./build/examples/bg_pipeline
#include <cstdio>

#include "src/experiment/experiment.h"
#include "src/tasks/algorithms.h"
#include "src/tasks/task.h"

using namespace mpcn;

int main() {
  SimulatedAlgorithm algo = trivial_kset_algorithm(4, 1);
  const ModelSpec other{5, 3, 2};
  std::printf("source : 2-set agreement algorithm for %s\n",
              algo.model.to_string().c_str());
  std::printf("target : %s  (equivalent: both have power index %d)\n\n",
              other.to_string().c_str(), other.power());

  std::vector<Value> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(Value(100 + 11 * i));

  Report report =
      Experiment::of(algo)
          .label("bg_pipeline")
          .through_chain_to(other)
          .with_task(std::make_shared<KSetAgreementTask>(2))
          .input_pool(pool)
          .seed(42)
          .step_limit(1'500'000)
          .crashes([](const ModelSpec& m, std::uint64_t) {
            // Crash up to each hop's own budget.
            return CrashPlan::hazard(0.001, m.t,
                                     static_cast<std::uint64_t>(977 + m.n));
          })
          .run_all();

  for (const RunRecord& hop : report.records) {
    std::printf("--- %s %s\n", hop.target.to_string().c_str(),
                hop.mode == ExecutionMode::kDirect
                    ? "(native run)"
                    : "(simulated via BG engine)");
    for (int i = 0; i < hop.target.n; ++i) {
      const auto& d = hop.decisions[static_cast<std::size_t>(i)];
      std::printf("    q%d in=%s %s -> %s\n", i,
                  hop.inputs[static_cast<std::size_t>(i)].to_string().c_str(),
                  hop.crashed[static_cast<std::size_t>(i)] ? "crashed"
                                                           : "ok     ",
                  d ? d->to_string().c_str() : "(none)");
    }
    std::printf("    => %s\n\n",
                hop.ok() ? "2-set agreement solved"
                         : (hop.why.empty() ? "FAILED" : hop.why.c_str()));
  }
  std::printf("%s\n", report.all_ok()
                          ? "Every hop of the Figure 7 chain solved the task."
                          : "A hop FAILED — see above.");
  return report.all_ok() ? 0 : 1;
}
