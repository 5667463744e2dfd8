// The generalized BG simulation engine — the paper's two reductions as
// one parameterized algorithm.
//
// Given an algorithm A for a source model ASM(n1, t1, x1) (colorless
// decision task), make_simulation(A, target) produces the N = n2 programs
// of an algorithm A' that solves the same task in the target model
// ASM(n2, t2, x2), provided
//
//     ⌊t2/x2⌋  <=  ⌊t1/x1⌋        (the main theorem's condition)
//
// Instantiations:
//   * target x2 = 1, same n — Section 3 (simulating ASM(n,t',x) in
//     ASM(n,t,1)): the agreement objects are Figure 1 safe_agreement
//     objects; simulated x-consensus goes through one extra
//     safe_agreement per object (Figure 4).
//   * source x1 = 1, same n — Section 4 (simulating ASM(n,t,1) in
//     ASM(n,t',x)): the agreement objects are Figure 6 x_safe_agreement
//     objects.
//   * x1 = x2 = 1, N = t+1 — the original Borowsky-Gafni simulation
//     (ASM(n,t,1) ≃ ASM(t+1,t,1)).
//   * the general case combines all three (Section 5).
//
// Liveness accounting (Lemmas 1-2, 7-8): per-simulator mutex1 keeps each
// simulator inside at most one agreement propose at a time; blocking one
// agreement object requires x2 simulator crashes mid-propose (1 when
// x2 = 1) and blocks at most x1 simulated processes (the ports of one
// simulated x-consensus object) or exactly one (a snapshot agreement).
// With at most t2 crashes, at most ⌊t2/x2⌋·x1 <= t1 simulated processes
// block, so the t1-resilient A keeps terminating for at least n1 - t1
// simulated processes, and every correct simulator adopts a decision.
// Only crashes count there: a simulator that has decided stops its
// simulation, but its thread inside an agreement propose (at most one,
// by mutex1) completes that propose first (Section 5.5's rule, applied
// to both engines), so stopping blocks no agreement object.
//
// The simulators share MEM and the agreement objects, held in tables
// indexed as the paper indexes them: INPUT[j], SAFE_AG[j, snapsn] of
// Figure 3 and XSAFE_AG[a] of Figure 4 (engine_internal.h).
#pragma once

#include <vector>

#include "src/core/sim_api.h"
#include "src/runtime/execution.h"

namespace mpcn {

// Which implementation backs the simulators' shared MEM snapshot object.
// kPrimitive is the model primitive (one step per operation); kAfek runs
// the whole simulation on the wait-free register construction instead —
// strictly slower, behaviourally identical (ablation).
enum class MemKind { kPrimitive, kAfek };

struct SimulationOptions {
  // Verify ⌊t2/x2⌋ <= ⌊t1/x1⌋ (and structural validity). Disable only in
  // tests that demonstrate what breaks when the condition is violated.
  bool check_legality = true;
  MemKind mem = MemKind::kPrimitive;
};

// One target-model Program per simulator q_0..q_{N-1}. Each simulator
// decides a value of the simulated task (colorless adoption).
std::vector<Program> make_simulation(const SimulatedAlgorithm& algorithm,
                                     const ModelSpec& target,
                                     const SimulationOptions& options = {});

}  // namespace mpcn
