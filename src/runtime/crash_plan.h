// Crash plans and the crash manager: the failure adversary.
//
// The paper's failure model (Section 2.3): an arbitrary subset of at most
// t processes may crash; a crashed process executes no more steps. We
// realize the adversary as a CrashPlan evaluated at every primitive step:
//
//  * none()   — failure-free runs,
//  * fixed()  — process p crashes exactly at its k-th own step (counted
//               across all threads of its crash domain; a wait off the
//               schedule, such as a simulator's mutex wait, is no step).
//               This is how tests place a crash *inside* a
//               safe-agreement propose section, the critical scenario of
//               Lemma 1 / Lemma 7,
//  * hazard() — at every step of an eligible process, crash with
//               probability p, subject to a budget of at most max_crashes
//               processes. Seeded: deterministic. The only kind that
//               draws random numbers; it draws them from the stream of
//               splitmix64(seed), not of seed itself (see realized()).
//
// Crash domains are whole processes: when a simulator crashes, all the
// threads it forked for simulated processes stop with it ("after it has
// crashed, a process executes no more steps").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/common/ids.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/runtime/schedule_policy.h"

namespace mpcn {

struct CrashPoint {
  ProcessId pid = -1;
  // The process crashes when its own step counter reaches this value
  // (1-based: at_step = 1 crashes at the very first primitive step).
  std::uint64_t at_step = 1;
};

class CrashPlan {
 public:
  static CrashPlan none();
  static CrashPlan fixed(std::vector<CrashPoint> points);
  static CrashPlan hazard(double per_step_probability, int max_crashes,
                          std::uint64_t seed,
                          std::set<ProcessId> eligible = {});

  // White-box adversary for the simulation engine. Two trap points:
  //
  //  * kProposeEntry — for safe-agreement targets (x = 1): the first
  //    `victims_per_key` threads to take a step inside a propose on the
  //    key are crashed at their `extra_steps`-th step in it (that first
  //    step counts), landing between the level-1 write and the
  //    stabilizing write. A victim's level-1 write is then the object's
  //    first write, so every other proposer decides after it and sees
  //    the unstable entry: one victim poisons the object
  //    deterministically. (Arming the first thread to *enter* the
  //    propose left a lottery: a victim whose first step the schedule
  //    delays can write after another simulator has decided.)
  //  * kOwnerElected — for x-safe-agreement targets (x > 1): the first
  //    `victims_per_key` (= x) *elected owners* of the key's object are
  //    crashed `extra_steps` (= 1) own-steps after winning their
  //    test&set slot — before any SET_LIST scan step, so no owner ever
  //    publishes and the object is poisoned deterministically (exactly
  //    the x-crash scenario of Theorem 2 / Lemma 7).
  //
  // This realizes the blocking lemmas' adversary exactly, making
  // impossibility witnesses deterministic instead of a crash-timing
  // lottery. Total budget: keys.size() * victims_per_key crashes.
  //
  // A key names one engine agreement object (src/core/engine_internal.h):
  //   "INPUT/<j>"          simulated p_j's input agreement,
  //   "AG/<j>/<snapsn>"    the agreement on p_j's snapsn-th simulated
  //                        snapshot (snapsn counts from 1),
  //   "XAG/<name>"         the agreement behind the simulated x_cons
  //                        object <name>.
  // A key that names no object of the run traps nothing.
  enum class TrapPoint { kProposeEntry, kOwnerElected };
  static CrashPlan propose_trap(std::vector<std::string> keys,
                                int victims_per_key,
                                std::uint64_t extra_steps,
                                TrapPoint point = TrapPoint::kProposeEntry);

  // Explored crashes: the plan itself places no crashes — crash decisions
  // are delegated to the SchedulePolicy seam via CrashDirector, so the
  // explorer (src/explore/) searches the (schedule × crash-plan) product.
  // `max_crashes` is the adversary budget t; `crash_rate` is the per-grant
  // crash probability randomized policies (random / pct) use — systematic
  // DFS enumerates crash placements exhaustively and ignores it.
  static CrashPlan explored(int max_crashes, double crash_rate = 0.1);

  bool is_none() const { return kind_ == Kind::kNone; }
  bool is_explored() const { return kind_ == Kind::kExplored; }

  // Total number of processes this plan may crash (the adversary budget).
  int budget(int n) const;

  // Wire form for cross-process experiment shards (src/dist/): every
  // plan kind round-trips, so a shard worker replays exactly the
  // adversary the coordinator configured.
  Json to_json() const;
  static CrashPlan from_json(const Json& j);

 private:
  friend class CrashManager;
  enum class Kind { kNone, kFixed, kHazard, kProposeTrap, kExplored };
  Kind kind_ = Kind::kNone;
  std::vector<CrashPoint> points_;
  double probability_ = 0.0;
  int max_crashes_ = 0;
  std::uint64_t seed_ = 0;
  std::set<ProcessId> eligible_;
  std::vector<std::string> trap_keys_;
  int victims_per_key_ = 0;
  std::uint64_t trap_extra_steps_ = 0;
  TrapPoint trap_point_ = TrapPoint::kProposeEntry;
};

// Runtime state of the adversary for one execution. Doubles as the
// CrashDirector of explored plans: the LockstepController consults it at
// grant time and directs crashes onto granted threads.
class CrashManager : public CrashDirector {
 public:
  CrashManager(int n, CrashPlan plan);

  // Called on every primitive step of a thread (under the step token, so
  // hazard decisions are deterministic). Crash semantics are per-process
  // (crash domain = tid.pid); the thread identity is needed so propose
  // traps can count the *armed thread's* own steps into the propose body.
  // Returns true if the process must crash at this step; the manager has
  // already recorded the crash when it returns true.
  bool on_step(ThreadId tid);

  // True when the plan is a propose trap: only then does the engine
  // name the objects it proposes on (on_propose_enter).
  bool traps_proposes() const;

  // Engine hook, for propose-trap plans: thread `tid` is entering an
  // agreement-propose section on the object `key` (with mutex1 already
  // held). If the plan traps `key`, the thread's next step (its first in
  // the propose, kProposeEntry) or its next on_owner_elected
  // (kOwnerElected) arms a pending crash.
  void on_propose_enter(ThreadId tid, const std::string& key);

  // XSafeAgreement hook: thread `tid` just won an ownership slot of the
  // object its last on_propose_enter named. Arms a pending crash if the
  // plan traps that key at kOwnerElected; no-op otherwise.
  void on_owner_elected(ThreadId tid);

  // Force-crash a process (used by tests to model external failures).
  void crash_now(ProcessId pid);

  bool is_crashed(ProcessId pid) const;
  int crash_count() const;
  std::vector<bool> crashed_vector() const;

  // The crashes this execution actually realized, in crash order: each
  // entry is (pid, the pid's own-step count at the crash). Replaying the
  // realized points as CrashPlan::fixed reproduces any randomized run
  // exactly: the hazard draws come from the manager's own Rng, so the
  // scheduler's stream does not depend on them. Nor do the two streams
  // share words: `mpcn run --crash-p` seeds a cell's scheduler and its
  // hazard plan with the same seed, and on one stream step k's crash
  // draw would read grant k's pick, so the first crash would hit the
  // lowest runnable process whenever p * n < 1. The manager seeds its
  // Rng with splitmix64 of the plan's seed.
  std::vector<CrashPoint> realized() const;

  // CrashDirector (explored plans; called by the lock-step controller
  // at grant time).
  int budget_remaining() const override;
  bool crashable(ProcessId pid) const override;
  double rate() const override;
  bool direct_crash(ThreadId tid) override;

 private:
  // trap key -> victims still to assign.
  using TrapTable = std::map<std::string, int>;
  void arm_trap(ThreadId tid, TrapTable::iterator trap);

  const int n_;
  CrashPlan plan_;
  Rng rng_;
  std::vector<bool> crashed_;
  std::vector<std::uint64_t> step_counts_;
  int crash_count_ = 0;
  // pid -> own-step at which to crash (fixed plans).
  std::map<ProcessId, std::uint64_t> fixed_points_;
  TrapTable trap_remaining_;
  // Thread -> the trap of the object it is proposing on
  // (trap_remaining_.end() when that object is not trapped); an entry
  // trap erases it at the thread's first step in the propose.
  std::map<ThreadId, TrapTable::iterator> proposing_;
  // armed thread -> remaining own-steps until the crash fires.
  std::map<ThreadId, std::uint64_t> armed_;
  // pids with an armed thread (one trap assignment per process).
  std::set<ProcessId> armed_pids_;
  // Explored plans: the thread whose next step must crash (at most one
  // directive is pending — a grant-time directive is consumed by the
  // granted thread's immediately-following on_step).
  std::optional<ThreadId> directed_;
  // Crashes realized so far, in crash order.
  std::vector<CrashPoint> realized_;
};

}  // namespace mpcn
