#include "src/runtime/process_context.h"

#include "src/runtime/execution.h"

namespace mpcn {

ProcessContext::ProcessContext(ThreadId tid, Execution& exec)
    : tid_(tid),
      exec_(&exec),
      controller_(&exec.controller()),
      crashes_(&exec.crashes()) {}

StepGuard ProcessContext::step() {
  if (!controller_->acquire(tid_)) throw SimulationHalted();
  // Crash evaluation happens while holding the token so that hazard-plan
  // randomness is consumed at a deterministic point of the schedule.
  if (crashes_->on_step(tid_)) {
    exec_->maybe_stop_all_correct_decided();  // still on-token
    controller_->release(tid_);
    controller_->wake_domain(pid());  // its waiting threads unwind too
    throw ProcessCrashed(pid());
  }
  if (cancel_ && cancel_deferrals_ == 0) {
    controller_->release(tid_);
    throw SimulationHalted();
  }
  return StepGuard(controller_, tid_);
}

void ProcessContext::wait(WaitList& list) {
  if (controller_->stop_requested() || (cancel_ && cancel_deferrals_ == 0) ||
      crashes_->is_crashed(pid())) {
    return;
  }
  controller_->wait(list, /*interruptible=*/true);
}

Value ProcessContext::input() const { return exec_->input_of(pid()); }

void ProcessContext::decide(const Value& v) {
  exec_->record_decision(pid(), v);
}

bool ProcessContext::has_decided() const { return exec_->has_decision(pid()); }

ChildHandle ProcessContext::fork(LockstepController::Body fn) {
  const ThreadId child{pid(), exec_->next_sub(pid())};
  // The controller registers the child before it starts, so the live set
  // evolves at a deterministic point (the parent's own turn).
  return ChildHandle(controller_->spawn(child, *exec_, std::move(fn)));
}

}  // namespace mpcn
