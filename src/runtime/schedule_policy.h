// SchedulePolicy: the WHO-runs-next seam of the lock-step scheduler, and
// the runtime's default adversary.
//
// The LockstepController (step_controller.h) grants the step token only
// when every live fiber is parked; WHICH fiber it grants, and whether
// that fiber's process crashes on the step, is always a SchedulePolicy's
// pick(). A lock-step run given no policy gets SeededRandomPolicy at the
// run's seed (execution.h). The schedule-exploration subsystem
// (src/explore/) plugs in the rest: replaying recorded traces, PCT
// priority schedules and bounded-DFS enumeration are all just different
// pick() implementations.
//
// Contract:
//   * pick() is called exactly once per grant, on the thread running the
//     lock-step execution, with `runnable` sorted by ThreadId and
//     non-empty.
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
#include "src/common/rng.h"

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

  // The thread to grant the step token to, as an index into `runnable`,
  // and whether its process crashes at this grant. `director` is the
  // crash adversary of an explored crash plan, valid for the duration of
  // the call; it is null for schedule-only runs, where the controller
  // ignores a crash directive.
  virtual GrantChoice pick(const std::vector<ThreadId>& runnable,
                           CrashDirector* director) = 0;
};

// The seeded crash draw of the randomized policies: when `director` can
// still afford a crash of `pid`, one chance(rate) draw from `rng`, taken
// after the grant's own draws; no draw otherwise.
bool draw_crash(Rng& rng, CrashDirector* director, ProcessId pid);

// Uniform draw from a seeded RNG: one index() draw per grant over the
// runnable count, then draw_crash for the granted process. What a run
// given no policy runs, at the run's seed.
class SeededRandomPolicy : public SchedulePolicy {
 public:
  explicit SeededRandomPolicy(std::uint64_t seed) : rng_(seed) {}
  GrantChoice pick(const std::vector<ThreadId>& runnable,
                   CrashDirector* director) override;

 private:
  Rng rng_;
};

}  // namespace mpcn
