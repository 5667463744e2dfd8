// The step controller: the scheduling substrate of the library.
//
// The paper's formal model is an interleaving model: a run is a sequence of
// atomic steps, one per shared-memory primitive operation, chosen by an
// asynchronous adversary. LockstepController reproduces it as a
// deterministic adversary. Every process is a Fiber (fiber.h) on the one
// thread that calls run(). A fiber must hold the (single) step token to
// perform a shared-memory operation. The token is granted only when every
// live fiber is parked waiting for it, so the runnable set of a grant is
// the live set itself; a SchedulePolicy (schedule_policy.h) picks the next
// holder from it, sorted by ThreadId, and the controller switches to it.
// Given the policy's seed, the interleaving of shared-memory steps is
// reproducible, which is what makes the crash-injection tests of the
// paper's blocking lemmas (Lemma 1, Lemma 7) precise.
//
// A run is serial by definition, so it needs no OS threads, no locks and
// no wakeups: handing over the token is one context switch, and none at
// all when the policy re-grants the running fiber. Parking is a flag and a
// count, so a grant touches no container: the sorted live set changes only
// when a thread enters or leaves the schedule. The objects a run's
// processes share (registers, snapshots, agreement objects, the history
// recorder, the crash manager) are touched only by its fibers, one at a
// time, so they carry no locks either; each run builds its own.
//
// All protocol-level blocking in the library is yield-spinning through the
// controller (no native blocking), so runs cannot deadlock on hidden
// OS-level waits.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/runtime/fiber.h"
#include "src/runtime/schedule_policy.h"

namespace mpcn {

// Deterministic lock-step controller (see file comment). Single-threaded:
// every method runs on the thread that calls run().
class LockstepController {
 public:
  using Deadline = std::chrono::steady_clock::time_point;

  // `policy` (non-null) picks every grant (schedule_policy.h).
  LockstepController(std::uint64_t step_limit,
                     std::shared_ptr<SchedulePolicy> policy);
  ~LockstepController();
  LockstepController(const LockstepController&) = delete;
  LockstepController& operator=(const LockstepController&) = delete;

  // Thread lifecycle. spawn() registers `tid` with the step schedule and
  // starts `body` as a fiber. The creator registers the thread before it
  // can run, so the set of live threads evolves deterministically. `body`
  // must not throw; the thread leaves the schedule when it returns.
  void spawn(ThreadId tid, std::function<void()> body);
  // Wait until thread `tid` has finished. A caller that waits for an
  // unfinished thread must have left() the schedule first.
  void join(ThreadId tid);
  // Return once every spawned fiber has finished; the fibers run on the
  // calling thread. A run still going at `deadline` is stopped and
  // flagged timed out.
  void run(Deadline deadline);

  // Take a running thread out of the grant set and put it back (a parent
  // waiting for a child it abandons). leave() runs on the leaving
  // thread's own fiber (finishing, or ~ChildHandle), never on behalf of a
  // thread parked in acquire().
  void enter(ThreadId tid);
  void leave(ThreadId tid);

  // Acquire the step token, parking until it is granted. Returns false
  // if the run has been stopped instead of granting.
  bool acquire(ThreadId tid);
  // Release the token after the atomic operation; advances the step clock.
  void release(ThreadId tid);

  void request_stop() { stop_ = true; }
  bool stop_requested() const { return stop_; }
  bool timed_out() const { return timed_out_; }

  // Number of completed steps (the global step clock).
  std::uint64_t steps() const { return steps_; }

  // A thread's body ended by unwinding SimulationHalted or ProcessCrashed
  // (the catch sites call these). Counted per run and added to the
  // `runtime.halt_unwinds` / `runtime.crash_unwinds` counters once run()
  // returns.
  void note_halt_unwind() { ++halt_unwinds_; }
  void note_crash_unwind() { ++crash_unwinds_; }

  // The sequence of granted thread ids (empty unless tracing was
  // enabled), and the grant-trace indices at which the crash adversary
  // crashed the granted thread. Together they pin a (crashing) execution.
  const std::vector<ThreadId>& grant_trace() const { return grant_trace_; }
  void enable_grant_trace() { trace_ = true; }
  const std::vector<std::uint64_t>& crash_marks() const {
    return crash_marks_;
  }

  // Attach the crash adversary of an explored CrashPlan. Every grant
  // hands the director to SchedulePolicy::pick, so the policy searches
  // the (schedule × crash) product. `director` must outlive the
  // controller's last grant; Execution owns both and tears down in order.
  void set_crash_director(CrashDirector* director) {
    crash_director_ = director;
  }

  // Non-empty if the plugged SchedulePolicy misbehaved (out-of-range
  // pick). Grants cannot throw (they fire while a fiber parks or ends),
  // so the fault is latched here and surfaced by Execution::run.
  const std::string& policy_error() const { return policy_error_; }

 private:
  struct Thread;

  Thread& thread(ThreadId tid);
  // Picks the next token holder from the live set if every live fiber is
  // parked, no one holds the token and the run is not over.
  void maybe_grant();
  // The fiber that runs next once the current one stops (null = run()'s
  // caller): fibers that have not parked yet, then the token holder, then
  // — once the run is stopped — parked fibers, lowest ThreadId first, so
  // they unwind.
  Thread* pick_next();
  void switch_to(Thread* next);
  // The current fiber stopped running: grant if due and switch on.
  void dispatch();
  // The current fiber's body returned: leave the schedule for good.
  [[noreturn]] void finish(Thread* t);
  // Destroy the fiber that finished last (it cannot unmap its own stack).
  void reap();

  const std::shared_ptr<SchedulePolicy> policy_;
  CrashDirector* crash_director_ = nullptr;  // null = schedule-only grants
  const std::uint64_t step_limit_;
  Deadline deadline_ = Deadline::max();
  std::uint64_t steps_ = 0;
  // Fiber switches so far, added to the `runtime.switches` counter once
  // run() returns: an atomic add per switch would cost a share of one.
  std::uint64_t switches_ = 0;
  std::uint64_t halt_unwinds_ = 0;
  std::uint64_t crash_unwinds_ = 0;

  std::map<ThreadId, std::unique_ptr<Thread>> threads_;
  // The grant set, sorted by ThreadId, with live_threads_ parallel to it.
  // Only enter() and leave() change it. Since leave() never runs for a
  // parked thread, every parked fiber is live, and a grant is due exactly
  // when n_parked_ == live_.size(): live_ is then the runnable set.
  std::vector<ThreadId> live_;
  std::vector<Thread*> live_threads_;
  std::size_t n_parked_ = 0;   // fibers parked in acquire()
  std::deque<Thread*> ready_;  // to run before the next grant, FIFO
  Thread* holder_ = nullptr;   // granted the token, not yet released
  Thread* current_ = nullptr;  // null = run()'s caller
  Thread* zombie_ = nullptr;
  Fiber* caller_ = nullptr;    // run()'s caller, while run() is active

  bool stop_ = false;
  bool timed_out_ = false;
  bool trace_ = false;
  std::string policy_error_;
  std::vector<ThreadId> grant_trace_;
  std::vector<std::uint64_t> crash_marks_;
};

}  // namespace mpcn
