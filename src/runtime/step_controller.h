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
// The controller reads the clock at every 256th grant, and at a run's
// first: for the wall limit, and for heartbeat_tick (src/obs/heartbeat.h),
// through which a shard worker with streaming telemetry beats from inside
// a long job. The tick touches no state of the run, so it moves no grant.
//
// A thread is a Slot: its body, its ProcessContext, its schedule state and
// the done/joined/error state its ChildHandle reads, on a fiber of its
// own. Slots come from a per-OS-thread pool of at most 64 and go back to
// it when the run's controller is destroyed. A pooled slot's fiber is
// parked where its last body ended and takes the next body with one
// _longjmp, so once the pool is warm starting a thread (spawn, and through
// it Execution::run and ProcessContext::fork) makes no system call and
// allocates nothing. The run's tables reserve room for the pool's 64
// slots, so runs of up to 64 threads grow none of them. A forked process
// (a shard worker) inherits the pool warm.
//
// No thread ever blocks natively. A wait on shared memory (an agreement's
// decide) is a loop of steps, each a model step the policy schedules. A
// wait on a local condition (a simulator's mutex, its next simulated
// decision, a child's end) takes no step: the thread leaves the grant set
// and suspends on a WaitList, and whichever thread changes the condition
// re-enters it into the grant set and makes it ready during its own turn,
// as spawn registers a new thread. So the live set, the runnable set of
// every grant, still changes only at points the schedule fixes. A cancel
// of the waiter, a crash of its domain and the run's stop wake it too, and
// a run in which every live thread waits can never grant again, so it ends
// timed out.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/runtime/fiber.h"
#include "src/runtime/schedule_policy.h"

namespace mpcn {

class ChildHandle;
class Execution;
class ProcessContext;
class WaitList;

// Deterministic lock-step controller (see file comment). Single-threaded:
// every method runs on the thread that calls run().
class LockstepController {
 public:
  using Deadline = std::chrono::steady_clock::time_point;
  // A thread's body. A capture of up to two pointers fits std::function's
  // local buffer, so binding one allocates nothing.
  using Body = std::function<void(ProcessContext&)>;
  // One thread of the run (step_controller.cc); opaque elsewhere.
  struct Slot;

  // `policy` (non-null) picks every grant (schedule_policy.h).
  LockstepController(std::uint64_t step_limit,
                     std::shared_ptr<SchedulePolicy> policy);
  // Gives the run's slots back to the pool.
  ~LockstepController();
  LockstepController(const LockstepController&) = delete;
  LockstepController& operator=(const LockstepController&) = delete;

  // Registers thread `tid` of `exec` with the step schedule and starts
  // `body` on a slot of its own once the caller stops running. The
  // creator registers the thread before it can run, so the set of live
  // threads evolves deterministically. The thread leaves the schedule
  // when `body` returns; ProcessCrashed and SimulationHalted end it
  // quietly, and any other exception is kept for its ChildHandle.
  Slot& spawn(ThreadId tid, Execution& exec, Body body);
  // Return once every spawned fiber has finished; the fibers run on the
  // calling thread. A run still going at `deadline` is stopped and
  // flagged timed out.
  void run(Deadline deadline);

  // Acquire the step token, parking until it is granted. Returns false
  // if the run has been stopped instead of granting.
  bool acquire(ThreadId tid);
  // Release the token after the atomic operation; advances the step clock.
  void release(ThreadId tid);

  // The running thread leaves the grant set and suspends on `list`,
  // taking no step, until a wake re-enters it and makes it ready
  // (WaitList::wake_all, on the waker's own turn). An `interruptible`
  // wait also ends at a cancel of the thread, a crash of its domain
  // (wake_domain) and the run's stop; its next step then unwinds it.
  // Callers re-check their condition once woken. Never called while
  // holding the token.
  void wait(WaitList& list, bool interruptible);
  // Crash domain `pid` crashed: wake its interruptible waiters.
  void wake_domain(ProcessId pid);

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
  void enable_grant_trace();
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
  friend class ChildHandle;
  friend class WaitList;

  // Every slot's fiber entry: run one body after another, parking the
  // fiber in between.
  [[noreturn]] static void slot_main(void* slot);
  // Runs `s`'s body and leaves the schedule; returns the fiber to switch
  // to.
  Fiber& run_body(Slot& s);

  // Take `s` into the grant set and out of it. leave() runs on the
  // leaving thread's own fiber (finishing, or waiting), never on behalf
  // of a thread parked in acquire().
  void enter(Slot& s);
  void leave(Slot& s);
  // Takes waiting thread `s` off its list, re-enters it into the grant
  // set and makes it ready.
  void wake(Slot& s);
  // Wakes `s` if it is in an interruptible wait.
  void interrupt(Slot& s);

  void push_ready(Slot* s);
  // Picks the next token holder from the live set if every live fiber is
  // parked, no one holds the token and the run is not over.
  void maybe_grant();
  // The fiber that runs next once the current one stops (null = run()'s
  // caller): fibers that have not parked yet, then the token holder, then
  // — once the run is stopped — parked fibers, lowest ThreadId first, and
  // then interruptible waiters, so they unwind. A run whose every
  // unfinished thread waits is stopped here, timed out.
  Slot* pick_next();
  void switch_to(Slot* next);
  // The current fiber stopped running: grant if due and switch on.
  void dispatch();

  const std::shared_ptr<SchedulePolicy> policy_;
  CrashDirector* crash_director_ = nullptr;  // null = schedule-only grants
  const std::uint64_t step_limit_;
  Deadline deadline_ = Deadline::max();
  std::uint64_t steps_ = 0;
  // Per-run tallies, added to the `runtime.*` counters once run()
  // returns: an atomic add per switch would cost a share of one.
  std::uint64_t switches_ = 0;
  std::uint64_t fiber_contexts_ = 0;  // slots made rather than pooled
  std::uint64_t halt_unwinds_ = 0;
  std::uint64_t crash_unwinds_ = 0;

  // The run's slots, in spawn order.
  std::vector<std::unique_ptr<Slot>> slots_;
  // The grant set, sorted by ThreadId, with live_slots_ parallel to it.
  // Only enter() and leave() change it. Since leave() never runs for a
  // parked thread, every parked fiber is live, and a grant is due exactly
  // when n_parked_ == live_.size(): live_ is then the runnable set.
  std::vector<ThreadId> live_;
  std::vector<Slot*> live_slots_;
  std::size_t n_parked_ = 0;        // fibers parked in acquire()
  std::size_t n_waiting_ = 0;       // fibers suspended in wait()
  Slot* ready_head_ = nullptr;      // to run before the next grant, FIFO
  Slot* ready_tail_ = nullptr;
  Slot* holder_ = nullptr;   // granted the token, not yet released
  Slot* current_ = nullptr;  // null = run()'s caller
  Fiber* caller_ = nullptr;  // run()'s caller, while run() is active

  bool stop_ = false;
  bool timed_out_ = false;
  bool trace_ = false;
  std::string policy_error_;
  std::vector<ThreadId> grant_trace_;
  std::vector<std::uint64_t> crash_marks_;
};

// The threads waiting off the schedule for one local condition: a mutex
// to be released, a simulator's next simulated decision, a child's end.
// Whichever thread changes the condition wakes the list on its own turn.
class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

  // Re-enters every waiter into the grant set and makes it ready.
  void wake_all();

 private:
  friend class LockstepController;
  LockstepController::Slot* head_ = nullptr;  // linked by Slot::next_waiter
};

// Handle to a forked child thread (same crash domain as the parent): the
// parent's hold on the child's slot. Move-only; a moved-from handle holds
// nothing.
class ChildHandle {
 public:
  ChildHandle() = default;
  ChildHandle(ChildHandle&& o) noexcept
      : s_(std::exchange(o.s_, nullptr)) {}
  // Drops the child this handle held, neither cancelling nor joining it.
  ChildHandle& operator=(ChildHandle&& o) noexcept {
    s_ = std::exchange(o.s_, nullptr);
    return *this;
  }
  // Destructor: cancels the child and waits for it to finish, off the
  // schedule. Safe during exception unwind.
  ~ChildHandle();

  // Waits off the schedule until the child has finished; only the
  // child's end wakes the caller, so a cancel of the caller takes effect
  // at its first step after the join (a crash or the run's stop ends the
  // child too). Rethrows any non-crash, non-halt exception raised by the
  // child.
  void join();

  // Request the child to exit at its next step, waking it if it waits.
  // A child inside a ProcessContext::CancelDeferral takes steps until the
  // deferral ends (an engine thread finishes its agreement propose) and
  // exits at the first step after it.
  void cancel();

  bool done() const;

  // Non-crash, non-halt exception raised by a finished child (nullptr if
  // none). Lets a parent surface protocol errors without joining.
  std::exception_ptr error() const;

 private:
  friend class ProcessContext;
  explicit ChildHandle(LockstepController::Slot& s) : s_(&s) {}
  // Marks the child joined and waits until it has finished.
  void await_end();
  LockstepController::Slot* s_ = nullptr;
};

}  // namespace mpcn
