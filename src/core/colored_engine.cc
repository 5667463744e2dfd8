#include "src/core/colored_engine.h"

#include <algorithm>
#include <set>

#include "src/common/errors.h"
#include "src/core/engine_internal.h"

namespace mpcn {

namespace internal {

void EngineSimulator::run_colored(ProcessContext& ctx) {
  std::vector<ChildHandle> children = fork_children(ctx);
  std::set<int> tried;  // simulated processes whose T&S this simulator lost
  bool final_pass = false;
  for (;;) {
    // Pick the oldest candidate decision not yet contested by us. The
    // observation happens on-token so the claim schedule is
    // deterministic.
    std::optional<std::pair<int, Value>> cand;
    {
      auto g = ctx.step();
      for (int j : decision_order_) {
        if (!tried.count(j)) {
          cand = {j, *sim_decisions_[static_cast<std::size_t>(j)]};
          break;
        }
      }
    }
    if (cand) {
      // "it completes the invocations of x'_sa_propose in which it is
      // involved (if any) and stops the simulation" — pause new proposes
      // and drain the active ones so that losing the T&S cannot leave a
      // half-done propose that would block other simulators.
      pause_proposes(ctx);
      if (shared_->decision_test_and_set(cand->first).test_and_set(ctx)) {
        ctx.decide(Value::pair(Value(cand->first), cand->second));
        // Cancel in one exclusive window before the destructors join
        // (see run_colorless for why this keeps lock-step deterministic).
        for (ChildHandle& c : children) c.cancel();
        return;
      }
      tried.insert(cand->first);
      resume_proposes();
      continue;
    }
    // all children done AND the candidate re-scan above found nothing new:
    // no further candidates will ever arrive.
    if (final_pass) break;
    check_child_errors(children);
    bool all_done = true;
    for (const ChildHandle& c : children) {
      if (!c.done()) {
        all_done = false;
        break;
      }
    }
    // One more on-token scan before giving up, a grant kept for the same
    // reason as in run_colorless.
    if (all_done) final_pass = true;
  }
  for (ChildHandle& c : children) c.cancel();
}

}  // namespace internal

std::vector<Program> make_colored_simulation(
    const SimulatedAlgorithm& algorithm, const ModelSpec& target,
    const ColoredSimulationOptions& options) {
  algorithm.validate();
  target.validate();
  if (!algorithm.static_inputs) {
    throw ProtocolError(
        "colored simulation needs static_inputs: colored tasks assign "
        "inputs per simulated process (e.g. identities for renaming)");
  }
  if (options.check_legality) {
    if (target.x <= 1) {
      throw ProtocolError("colored simulation requires x' > 1");
    }
    if (algorithm.model.power() < target.power()) {
      throw ProtocolError("colored simulation requires ⌊t/x⌋ >= ⌊t'/x'⌋");
    }
    const int needed = std::max(target.n,
                                (target.n - target.t) + algorithm.model.t);
    if (algorithm.n() < needed) {
      throw ProtocolError(
          "colored simulation requires n >= max(n', (n'-t')+t): need " +
          std::to_string(needed) + ", have " +
          std::to_string(algorithm.n()));
    }
  }

  auto shared = std::make_shared<internal::EngineShared>(algorithm, target,
                                                         options.mem);
  std::vector<Program> programs;
  programs.reserve(static_cast<std::size_t>(target.n));
  for (int i = 0; i < target.n; ++i) {
    auto simulator = std::make_shared<internal::EngineSimulator>(shared, i);
    programs.push_back([simulator](ProcessContext& ctx) {
      simulator->run_colored(ctx);
    });
  }
  return programs;
}

}  // namespace mpcn
