// The algorithm zoo: concrete t-resilient algorithms expressed against
// the SimContext API, used as simulation sources, baselines and workloads.
#pragma once

#include "src/core/sim_api.h"

namespace mpcn {

// The classic t-resilient k-set agreement algorithm for ASM(n, t, 1),
// correct for every k >= t+1 ("it is trivial to solve k-set agreement in
// asynchronous read/write systems prone to t < k crashes", Section 1.1):
// write your input, snapshot until >= n-t inputs are visible, decide the
// minimum visible input. At most t+1 distinct values are decided.
SimulatedAlgorithm trivial_kset_algorithm(int n, int t);

// The natural *direct* algorithm in ASM(n, t, x) achieving the paper's
// frontier k = ⌊t/x⌋ + 1:
//   processes are partitioned into g = ⌊n/x⌋ full groups of x (leftover
//   processes join as waiters); group c funnels its inputs through the
//   x-ported consensus object "G<c>" and publishes ("R", c, result);
//   everyone waits until >= g - ⌊t/x⌋ groups have published and decides
//   the minimum published result.
// Killing one group's result costs x crashes, so at most f = ⌊t/x⌋ groups
// stay silent, every waiter sees >= g - f results, and decisions are
// minima missing at most f published values: at most f+1 distinct.
// Precondition: ⌊n/x⌋ > ⌊t/x⌋ (otherwise the wait may never be served);
// violated preconditions throw ProtocolError at construction.
SimulatedAlgorithm group_kset_algorithm(int n, int t, int x);

// Wait-free consensus among all n processes through one n-ported
// consensus object (legal only when the model grants x >= n; used to
// exercise the Figure 4 simulation path and the x > t regime where
// "all tasks can be solved").
SimulatedAlgorithm single_object_consensus_algorithm(int n, int t, int x);

// The classic wait-free snapshot-based adaptive renaming algorithm
// (Attiya et al. [3] style): propose a name, snapshot, on collision
// re-propose the r-th free name where r is the rank of your id among
// competitors; decide on a collision-free proposal. Decides
// pairwise-distinct names in [1, 2n-1]. A *colored* task: inputs are the
// identities (static_inputs = 0..n-1).
//
// The algorithm is wait-free, hence t-resilient for every t; `t` declares
// the model the instance is stamped with (default n-1 = wait-free). A
// smaller t matters for colored simulation, whose Section 5.5 size
// condition n >= (n'-t')+t depends on the declared t.
SimulatedAlgorithm snapshot_renaming_algorithm(int n, int t = -1);

// A trivially-colored diagnostic task: p_j immediately decides the unique
// name j+1 after one write/snapshot round. Used to exercise the colored
// engine's claim machinery in isolation from renaming's retry logic.
SimulatedAlgorithm identity_colored_algorithm(int n, int t, int x);

// Width-swept snapshot churn for ASM(n, 0, 1): every process writes its
// input, then performs `rounds` write+snapshot round trips and decides
// its input. Run with the Afek mem backend this is the register/snapshot
// hot path in its purest form (each write embeds a scan, each scan is a
// double collect over width-n cells carrying width-n views) — the
// workload behind the snapshot_churn registry scenario and the COW-Value
// payload cost model.
SimulatedAlgorithm snapshot_churn_algorithm(int n, int rounds);

// Pure step-token churn for ASM(n, 0, 1): every process writes its input,
// performs `rounds` further register writes (one model step each) and
// decides its input. No waiting, no agreement — each cell's step count is
// exactly n * (rounds + 1) for rounds + 1 writes per process, so
// wall time divided by steps is the scheduler's per-handoff cost. The
// workload behind bench_scheduler_handoff.
SimulatedAlgorithm step_churn_algorithm(int n, int rounds);

// DELIBERATELY BUGGY exhibit for ASM(n, 0, 1), n >= 2: the schedule
// explorer's known target (src/explore/). Process 0 publishes its input
// as a [v, v] pair but performs the final publication as a TORN
// two-step write — [v, -1] first, [v, v] one step later. Every other
// process takes `reader_rounds` snapshots; a reader whose snapshot lands
// inside the one-step torn window decides the bogus half (-1), which no
// process proposed — a validity violation against k-set agreement.
// `warmup_rounds` clean [v, v] writes pad the writer's timeline first,
// so the torn window sits deep enough that seeded uniform schedules
// essentially never catch a reader there (the readers' few snapshots
// interleave near the front), while PCT priority drops and bounded-DFS
// preemptions find it reliably.
SimulatedAlgorithm racy_register_algorithm(int n, int warmup_rounds = 12,
                                           int reader_rounds = 2);

// Fault-exploration exhibit for ASM(n, t, 1), n >= 2, t >= 1: a
// miniature safe-agreement protocol whose only vulnerability is a CRASH
// in a two-step window — the known target of the explorer's
// (schedule × crash) product search (src/explore/).
//
// Each process pads its timeline with `warmup_rounds` plain writes, then
// announces ["claim", v], then one step later ["commit", v], and finally
// snapshots until NO cell is in the claim state, deciding the minimum
// committed value seen. Under any crash-free schedule every claim is
// repaired to a commit one step later, so every process terminates and
// decisions are committed inputs: schedule-only search (bounded DFS at
// preemption bound 0, seeded-random sampling) finds nothing. A process
// CRASHED between its claim and its commit leaves the claim visible
// forever; if any peer has not yet decided, it spins to the step limit —
// a liveness violation only the product search can reach. Crashing a
// process after its peers decided is harmless (crashed processes are
// exempt from liveness), so the window is genuinely load-bearing.
// Validated with k-set agreement at k = n (vacuous agreement): the
// exhibit fails on liveness alone, never on the task relation.
SimulatedAlgorithm safe_agreement_window_algorithm(int n, int t,
                                                   int warmup_rounds = 2);

}  // namespace mpcn
