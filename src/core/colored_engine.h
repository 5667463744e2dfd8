// Colored-task simulation (Section 5.5).
//
// A colored task forbids two processes from deciding the value of the
// same simulated process (e.g. renaming: all decided names distinct), so
// the colorless "adopt the first simulated decision" rule is unsound.
// The paper's construction:
//
//   * run the generalized engine with x'-safe agreement objects for both
//     the snapshot agreements and the simulated x-consensus objects
//     (Figure 8 — textually Figure 4 over x'_safe_agreement);
//   * share an array T&S[1..n] of test&set objects; when simulator q_i
//     obtains the decision of p_j, "it completes the invocations of
//     x'_sa_propose in which it is involved (if any) and stops the
//     simulation. It then invokes T&S[j]. If q_i wins, it decides p_j's
//     value... If q_i looses, it resumes the simulation."
//
// The engine meets that rule without pausing anything before T&S[j]: a
// simulation that goes on while q_i invokes T&S[j] strands no propose,
// and a simulator that wins stops under the stop rule both engines
// share (engine_internal.h). It cancels its threads, and a thread inside
// an agreement propose completes that propose before it halts.
//
// Conditions (Section 5.5), for simulating ASM(n,t,x) in ASM(n',t',x'):
//   (1) x' > 1                 (test&set objects must be constructible),
//   (2) ⌊t/x⌋ >= ⌊t'/x'⌋       (the power condition),
//   (3) n >= max(n', (n'-t') + t)
//       (enough simulated decisions for every correct simulator to claim
//        a distinct one).
//
// Each simulator decides Value::pair(j, v_j): the simulated process it
// claimed and that process's decision.
#pragma once

#include "src/core/bg_engine.h"

namespace mpcn {

struct ColoredSimulationOptions {
  bool check_legality = true;
  // Substrate backing MEM[1..N] (the simulators' snapshot object), so
  // colored cells honor the Experiment mem axis like every other mode.
  MemKind mem = MemKind::kPrimitive;
};

// One target-model Program per simulator q_0..q_{N-1}.
std::vector<Program> make_colored_simulation(
    const SimulatedAlgorithm& algorithm, const ModelSpec& target,
    const ColoredSimulationOptions& options = {});

}  // namespace mpcn
