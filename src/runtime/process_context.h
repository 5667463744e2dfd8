// ProcessContext: the handle through which protocol code takes atomic steps.
//
// Every shared-memory primitive operation in the library brackets its
// critical mutation in `auto g = ctx.step();`. The step call
//   1. acquires the step token (the controller serializes here),
//   2. evaluates the crash adversary — a crashed process throws
//      ProcessCrashed and never executes the operation (Section 2.3:
//      "after it has crashed, a process executes no more steps"),
//   3. observes stop/cancel flags and throws SimulationHalted if the
//      harness has ended the run, or cancelled the thread outside every
//      CancelDeferral (below).
// A wait on a local condition is no step: see wait().
// A context is bound to its Execution and holds that run's controller and
// crash manager, so a step calls both directly: no virtual call.
//
// Contexts also carry the crash-domain structure of the simulations:
// a simulator q_i "manages n threads, each one associated with a simulated
// process" (Section 2.4). ProcessContext::fork() creates such a thread in
// the same crash domain: the child shares the parent's ProcessId, so one
// crash event stops the simulator and all its simulated threads together.
// Every thread is a slot of the run's controller, on a pooled fiber of the
// run's own OS thread (step_controller.h), and its context lives in that
// slot.
#pragma once

#include "src/common/errors.h"
#include "src/common/ids.h"
#include "src/common/value.h"
#include "src/runtime/crash_plan.h"
#include "src/runtime/step_controller.h"

namespace mpcn {

// RAII holder of the step token; the shared-memory mutation must happen
// while the guard is alive.
class StepGuard {
 public:
  StepGuard(LockstepController* c, ThreadId tid) : c_(c), tid_(tid) {}
  StepGuard(StepGuard&& o) noexcept : c_(o.c_), tid_(o.tid_) {
    o.c_ = nullptr;
  }
  StepGuard& operator=(StepGuard&&) = delete;
  StepGuard(const StepGuard&) = delete;
  ~StepGuard() {
    if (c_) c_->release(tid_);
  }

 private:
  LockstepController* c_;
  ThreadId tid_;
};

class ProcessContext {
 public:
  ProcessContext(ThreadId tid, Execution& exec);
  ProcessContext(const ProcessContext&) = delete;
  ProcessContext& operator=(const ProcessContext&) = delete;

  ThreadId tid() const { return tid_; }
  ProcessId pid() const { return tid_.pid; }

  // One atomic step. See file comment for semantics.
  StepGuard step();

  // A step that touches no shared object: take the token and release it
  // at once. A crashed, cancelled or stopped thread unwinds here as at
  // any step.
  void yield() { step(); }

  // Waits off the schedule on `list`, taking no step, until the thread
  // that changes the waited-for condition wakes it
  // (LockstepController::wait). A cancel of this thread, a crash of its
  // domain and the run's stop wake it too, and once one of them has
  // happened it does not wait at all: its next step unwinds it. Callers
  // re-check their condition after waking.
  void wait(WaitList& list);

  // The process's task input (Section 2.1: I[j]).
  Value input() const;

  // Record the process's decision (Section 2.2: write v into output_j).
  // A local action, not a shared-memory step. First decision wins.
  void decide(const Value& v);
  bool has_decided() const;

  // Fork a thread in this process's crash domain.
  ChildHandle fork(LockstepController::Body fn);

  // The run this context belongs to.
  Execution& backend() { return *exec_; }

  // While a CancelDeferral lives, a cancel of this thread
  // (ChildHandle::cancel) waits: the thread keeps taking steps and halts
  // at its first step once the last deferral has ended. The engine
  // defers over each agreement propose, so a simulator that stops its
  // simulation completes the proposes it is involved in (Section 5.5).
  // Crashes and the run's stop are never deferred.
  class CancelDeferral {
   public:
    explicit CancelDeferral(ProcessContext& ctx) : ctx_(ctx) {
      ++ctx_.cancel_deferrals_;
    }
    ~CancelDeferral() { --ctx_.cancel_deferrals_; }
    CancelDeferral(const CancelDeferral&) = delete;
    CancelDeferral& operator=(const CancelDeferral&) = delete;

   private:
    ProcessContext& ctx_;
  };

 private:
  friend class ChildHandle;
  ThreadId tid_;
  Execution* exec_;
  LockstepController* controller_;
  CrashManager* crashes_;
  bool cancel_ = false;
  int cancel_deferrals_ = 0;  // live CancelDeferrals
};

}  // namespace mpcn
