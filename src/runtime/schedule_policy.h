// SchedulePolicy: the pluggable WHO-runs-next seam of the lock-step
// scheduler.
//
// The LockstepController (step_controller.h) grants the step token only
// when every live fiber is parked; WHICH fiber it grants is, by
// default, a uniform draw from its seeded RNG. A SchedulePolicy replaces
// that draw: given the (ordered) runnable set and the global step clock,
// pick the next grant. This is the whole surface the schedule-exploration
// subsystem (src/explore/) needs — replaying recorded traces, PCT
// priority schedules and bounded-DFS enumeration are all just different
// pick() implementations.
//
// Contract:
//   * pick() is called exactly once per grant, on the thread running the
//     lock-step execution, with `runnable` sorted by ThreadId and
//     non-empty. `step` is the number of completed steps at grant time
//     (the grant's position in the schedule).
//   * The returned index must be < runnable.size(). Grants fire inside
//     controller switches and cannot throw, so an out-of-range pick is
//     clamped to keep the run live, latched as
//     LockstepController::policy_error(), and surfaced by Execution::run
//     as ProtocolError once the run completes — the experiment layer
//     captures it as a per-cell error (a buggy policy fails loudly, it
//     does not silently reshape the schedule).
//   * A lock-step run is single-threaded, so policies need no internal
//     locking; stateful policies (scripts, DFS prefixes) just advance a
//     cursor.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/ids.h"

namespace mpcn {

// The crash side of the (schedule × crash) product. When the cell's
// CrashPlan is `explored`, the controller exposes the crash adversary to
// the policy through this interface: at each grant the policy may ask
// whether a crash is still affordable (budget), whether the candidate
// process is still crashable (not already crashed), and — via the
// controller — direct a crash onto the granted thread's next step.
// Implemented by CrashManager; all methods are called at grant time.
class CrashDirector {
 public:
  virtual ~CrashDirector() = default;

  // Crashes the adversary may still inject (plan budget minus crashes
  // realized so far).
  virtual int budget_remaining() const = 0;

  // True when pid has not crashed yet (a second crash is meaningless).
  virtual bool crashable(ProcessId pid) const = 0;

  // The plan's per-grant crash probability, for randomized policies.
  virtual double rate() const = 0;

  // Direct a crash onto `tid`'s immediately-next step. Returns false if
  // the directive was rejected (budget exhausted / already crashed);
  // policies must treat a false return as "no crash happened".
  virtual bool direct_crash(ThreadId tid) = 0;
};

// A policy decision for one grant: which runnable thread gets the step
// token, and whether its process crashes at that step.
struct GrantChoice {
  std::size_t index = 0;
  bool crash = false;
};

class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;

  // Index into `runnable` of the thread to grant the step token to.
  virtual std::size_t pick(const std::vector<ThreadId>& runnable,
                           std::uint64_t step) = 0;

  // Product form: pick a thread AND decide whether it crashes at this
  // grant. Only called when the cell's crash plan is `explored` (the
  // controller has a CrashDirector attached); `director` is non-null and
  // valid for the duration of the call. The default keeps legacy
  // policies working unchanged: same schedule, no crashes.
  virtual GrantChoice pick_crashing(const std::vector<ThreadId>& runnable,
                                    std::uint64_t step,
                                    CrashDirector* director) {
    (void)director;
    return GrantChoice{pick(runnable, step), false};
  }
};

}  // namespace mpcn
