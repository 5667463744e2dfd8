// ProcessContext: the handle through which protocol code takes atomic steps.
//
// Every shared-memory primitive operation in the library brackets its
// critical mutation in `auto g = ctx.step();`. The step call
//   1. acquires the step token (the controller serializes here),
//   2. evaluates the crash adversary — a crashed process throws
//      ProcessCrashed and never executes the operation (Section 2.3:
//      "after it has crashed, a process executes no more steps"),
//   3. observes stop/cancel flags and throws SimulationHalted if the
//      harness has ended the run.
//
// Contexts also carry the crash-domain structure of the simulations:
// a simulator q_i "manages n threads, each one associated with a simulated
// process" (Section 2.4). ProcessContext::fork() creates such a thread in
// the same crash domain: the child shares the parent's ProcessId, so one
// crash event stops the simulator and all its simulated threads together.
// Every thread is a fiber on the run's own OS thread (step_controller.h).
#pragma once

#include <functional>
#include <memory>

#include "src/common/errors.h"
#include "src/common/ids.h"
#include "src/common/value.h"
#include "src/runtime/crash_plan.h"
#include "src/runtime/step_controller.h"

namespace mpcn {

class ProcessContext;

// Internal interface the context needs from the harness. Execution
// implements it; tests may substitute lightweight backends.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;
  virtual LockstepController& controller() = 0;
  virtual CrashManager& crashes() = 0;
  virtual void record_decision(ProcessId pid, const Value& v) = 0;
  virtual bool has_decision(ProcessId pid) const = 0;
  virtual Value input_of(ProcessId pid) const = 0;
  virtual int next_sub(ProcessId pid) = 0;
  // Called (with the step token held) when a crash fires, so the harness
  // can evaluate its stop condition at a deterministic schedule point.
  virtual void note_crash(ProcessId pid) { (void)pid; }
};

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

// Handle to a forked child thread (same crash domain as the parent).
class ChildHandle {
 public:
  ChildHandle() = default;
  ChildHandle(ChildHandle&&) = default;
  ChildHandle& operator=(ChildHandle&&) = default;
  // Destructor: cancels the child, takes the parent out of the grant
  // set, and waits for the child to finish. Safe during exception unwind.
  ~ChildHandle();

  // Cooperative join: yield-spins on the parent context until the child
  // has finished, then reaps it (the child needs no further steps at
  // that point, so this cannot stall the schedule).
  // Rethrows any non-crash, non-halt exception raised by the child.
  void join(ProcessContext& parent);

  // Request the child to exit at its next interruptible step.
  void cancel();

  bool done() const;

  // Non-crash, non-halt exception raised by a finished child (nullptr if
  // none). Lets a parent surface protocol errors without joining.
  std::exception_ptr error() const;

 private:
  friend class ProcessContext;
  struct State;
  std::shared_ptr<State> s_;
};

class ProcessContext {
 public:
  ProcessContext(ThreadId tid, ExecutionBackend* backend)
      : tid_(tid), backend_(backend) {}
  ProcessContext(const ProcessContext&) = delete;
  ProcessContext& operator=(const ProcessContext&) = delete;

  ThreadId tid() const { return tid_; }
  ProcessId pid() const { return tid_.pid; }

  // One atomic step. See file comment for semantics.
  StepGuard step();

  // A polite spin point: take (and immediately release) a step. All
  // protocol-level busy-waiting goes through yield so that runs stay
  // schedulable and crashed/stopped threads unwind promptly.
  void yield() { step(); }

  // The process's task input (Section 2.1: I[j]).
  Value input() const { return backend_->input_of(pid()); }

  // Record the process's decision (Section 2.2: write v into output_j).
  // A local action, not a shared-memory step. First decision wins.
  void decide(const Value& v) { backend_->record_decision(pid(), v); }
  bool has_decided() const { return backend_->has_decision(pid()); }

  // Fork a thread in this process's crash domain.
  ChildHandle fork(std::function<void(ProcessContext&)> fn);

  // True once the harness asked this thread (or the whole run) to stop.
  bool stopping() const;

  ExecutionBackend& backend() { return *backend_; }

 private:
  friend class ChildHandle;
  ThreadId tid_;
  ExecutionBackend* backend_;
  bool cancel_ = false;
};

}  // namespace mpcn
