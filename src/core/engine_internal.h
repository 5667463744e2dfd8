// Internals of the generalized BG simulation engine, shared by the
// colorless engine (bg_engine.cc) and the colored engine
// (colored_engine.cc). Not part of the public API surface.
//
// One EngineSimulator embodies simulator q_i of Section 2.4: it forks one
// thread per simulated process p_j (same crash domain), maintains the
// local copy mem_i of the simulated snapshot memory, and implements the
// three simulation operations of Figures 2, 3 and 4/8 on top of:
//   * MEM[1..N]: a snapshot object shared by the simulators,
//   * agreement objects in typed tables indexed as the paper indexes
//     them (INPUT[j], AG[j][snapsn], XAG[d]), each created on first touch
//     (SafeAgreement when the target model has x = 1, XSafeAgreement
//     otherwise),
//   * the two per-simulator cooperative mutexes of the paper
//     (mutex1: at most one agreement propose at a time — a crash blocks
//      at most one agreement object; mutex2: at most one simulated
//      x-consensus resolution at a time).
//
// Both engines, colorless and colored (Section 5.5), run one loop
// (EngineSimulator::run) under one stop rule: a simulator that has
// decided cancels its threads, and a thread inside an agreement propose
// finishes that propose before it halts (ProcessContext::CancelDeferral),
// so a decided simulator leaves no agreement object half-proposed.
//
// A simulator's threads are fibers of one run and take turns
// (step_controller.h), so its local state below needs no lock. Its local
// waits are no model steps: a thread that finds a mutex held, and a
// simulator with no simulated decision to claim, wait off the schedule
// until a sibling thread wakes them (ProcessContext::wait). Only the waits
// on shared memory, an agreement's decide, spin in steps.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/agreement_factory.h"
#include "src/core/bg_engine.h"
#include "src/core/sim_api.h"
#include "src/core/x_safe_agreement.h"
#include "src/objects/test_and_set.h"
#include "src/runtime/cooperative_mutex.h"
#include "src/runtime/execution.h"
#include "src/snapshot/snapshot_object.h"

namespace mpcn::internal {

// State shared by all N simulators of one simulation instance.
struct EngineShared {
  EngineShared(SimulatedAlgorithm algo_in, ModelSpec target_in,
               MemKind mem_kind, bool colored_in);

  const SimulatedAlgorithm algo;
  const ModelSpec target;
  // Colored mode (colored_engine.h): decisions are claimed through
  // TSDECIDE instead of adopted.
  const bool colored;
  // MEM[1..N]: MEM[i] holds simulator q_i's copy of the simulated memory,
  // as a list of n (value, sequence-number) pairs (Section 3.2.1).
  std::shared_ptr<SnapshotObject> mem;
  // SET_LIST of (N, x), shared by every x_safe_agreement object (x > 1;
  // null when the target has x = 1).
  std::shared_ptr<const SetList> set_list;

  // The shared objects, one typed table per family, each entry created
  // on first touch. Creation is a harness action, not a model step: the
  // formal model has every (unbounded) array up front, in a fixed
  // initial state. Entries never move once created.
  //   INPUT[j]         p_j's input agreement (colorless runs);
  //   AG[j][snapsn]    Figure 3's SAFE_AG[j, snapsn] (snapsn from 1);
  //   XAG[d]           Figure 4's XSAFE_AG[a], d = a's position in
  //                    algo.xcons;
  //   TSDECIDE[j]      the colored engine's T&S[j] (Section 5.5).
  AgreementObject& input_agreement(int j);
  AgreementObject& snapshot_agreement(int j, std::int64_t snapsn);
  AgreementObject& xcons_agreement(std::size_t d);
  TestAndSet& decision_test_and_set(int j);

  // The position of x_cons object `name` in algo.xcons.
  std::size_t xcons_index(const std::string& name) const;

  int n_sim() const { return algo.n(); }

 private:
  // `entry`, created if absent: SafeAgreement (Figure 1) when the target
  // has x = 1, where only registers and snapshots are legal; otherwise
  // XSafeAgreement (Figure 6) over the model's x-consensus and test&set
  // objects.
  AgreementObject& agreement(std::unique_ptr<AgreementObject>& entry);

  std::vector<std::unique_ptr<AgreementObject>> input_;
  std::vector<std::vector<std::unique_ptr<AgreementObject>>> ag_;
  std::vector<std::unique_ptr<AgreementObject>> xag_;
  std::vector<std::unique_ptr<TestAndSet>> tsdecide_;
};

// One target-model Program per simulator q_0..q_{N-1}, each running
// EngineSimulator::run over `shared`.
std::vector<Program> make_programs(std::shared_ptr<EngineShared> shared);

// Simulator q_i. Its run() method is the target-model Program produced by
// the public engine entry points.
class EngineSimulator {
 public:
  EngineSimulator(std::shared_ptr<EngineShared> shared, int i);

  // Fork the n simulated threads and claim simulated decisions, oldest
  // first, until one is q_i's own decision. Colorless mode adopts the
  // first one (a colorless task lets any process decide any decided
  // value); colored mode (Section 5.5) claims p_j's decision v_j through
  // T&S[j] and decides Value::pair(j, v_j) of the first one it wins.
  // With nothing to claim, q_i waits off the schedule until one of its
  // threads records a decision or ends, and gives up once all have ended.
  // Then q_i stops the simulation under the stop rule above.
  void run(ProcessContext& ctx);

  // --- simulation operations, called from simulated threads ---

  // Figure 2: sim_write_{i,j}(v).
  void sim_write(ProcessContext& cctx, int j, const Value& v);
  // Figure 3: sim_snapshot_{i,j}().
  std::vector<Value> sim_snapshot(ProcessContext& cctx, int j);
  // Figure 4 / Figure 8: sim_x_cons_propose^a_{i,j}(v), where a is the
  // object at position d of algo.xcons.
  Value sim_x_cons_propose(ProcessContext& cctx, int j, std::size_t d,
                           const Value& v);

  // Recording takes one scheduled step so the point at which a simulated
  // decision becomes visible to the simulator's adoption loop is fixed by
  // the schedule (determinism), not by native-code timing. A new decision
  // wakes that loop.
  void record_simulated_decision(ProcessContext& cctx, int j, const Value& v);
  bool simulated_has_decided(int j) const;

  int n_sim() const { return shared_->n_sim(); }

 private:
  friend class EngineSimContext;

  // The body of the thread simulating p_j: agree on p_j's input, then run
  // the simulated program.
  void child_body(ProcessContext& cctx, int j);

  // Fork all simulated threads; returns their handles.
  std::vector<ChildHandle> fork_children(ProcessContext& ctx);

  // Rethrows any protocol error surfaced by a finished child.
  void check_child_errors(const std::vector<ChildHandle>& children);

  // One agreement propose of `v` (Figure 3 line 05, Figure 4 line 02),
  // under mutex1 and with a cancel deferred until it returns. A
  // Value::List `v` becomes a Value only once mutex1 is held. `key()`
  // names the object for a propose trap (CrashPlan::propose_trap); it is
  // called only when the run's plan is one, so no other run formats a
  // key.
  template <typename V, typename Key>
  void propose(ProcessContext& cctx, AgreementObject& ag, V&& v,
               const Key& key);

  std::shared_ptr<EngineShared> shared_;
  const int i_;  // simulator id

  // mem_i: local copy of the simulated memory, kept directly as the list
  // of (value, seq) pair Values that MEM[i] publishes. A sim_write
  // replaces one pair and freezes a copy of the list as the payload —
  // O(1) per untouched entry (refcount bumps) instead of rebuilding every
  // pair.
  Value::List memi_pairs_;
  std::vector<std::int64_t> memi_sn_;

  // snap_sn_[j]: sequence of simulated snapshots of p_j; only the thread
  // simulating p_j touches entry j.
  std::vector<std::int64_t> snap_sn_;

  // The paper's mutex1 (Figure 3): at most one agreement propose at a
  // time per simulator, so one crash poisons at most one object.
  CooperativeMutex mutex1_;

  // Figure 4's mutex2, refined to ONE MUTEX PER SIMULATED OBJECT.
  //
  // The paper's pseudocode shows a single mutex2 held across line 03's
  // unbounded XSAFE_AG[a].sa_decide() wait. Read literally, that lets a
  // single crashed object block *unrelated* objects: the thread stuck in
  // sa_decide(a) holds mutex2 forever, so the simulator can never resolve
  // any other simulated object b — at every simulator — and more than x
  // simulated processes block, contradicting the Lemma 1 accounting.
  // mutex2's stated purpose ("the access to the local variable xres_i[a]
  // is protected", one-shot per object) is per-object serialization, so
  // that is what we implement: each object's resolve-once-and-cache is
  // serialized independently. sa_propose stays under mutex1, preserving
  // "a simulator is engaged in at most one sa_propose at a time".
  struct XObjectState {
    CooperativeMutex mutex;        // mutex2[a]
    std::optional<Value> result;   // xres_i[a], guarded by mutex
  };
  // Indexed by the object's position in algo.xcons.
  std::vector<XObjectState> xobjects_;

  // Simulated decisions (j -> value) and the claim order.
  std::vector<std::optional<Value>> sim_decisions_;
  std::vector<int> decision_order_;  // j's in arrival order

  // run() waits here with nothing to claim; a new simulated decision and
  // the end of a simulated thread wake it.
  WaitList progress_;
};

}  // namespace mpcn::internal
