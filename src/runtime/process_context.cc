#include "src/runtime/process_context.h"

namespace mpcn {

struct ChildHandle::State {
  std::unique_ptr<ProcessContext> ctx;
  ExecutionBackend* backend = nullptr;
  ThreadId parent_tid{};
  bool done = false;
  bool joined = false;  // the controller has reaped the child
  std::exception_ptr error;
};

StepGuard ProcessContext::step() {
  LockstepController& c = backend_->controller();
  if (!c.acquire(tid_)) throw SimulationHalted();
  // Crash evaluation happens while holding the token so that hazard-plan
  // randomness is consumed at a deterministic point of the schedule.
  if (backend_->crashes().on_step(tid_)) {
    backend_->note_crash(pid());  // stop-condition check, still on-token
    c.release(tid_);
    throw ProcessCrashed(pid());
  }
  if (cancel_) {
    c.release(tid_);
    throw SimulationHalted();
  }
  return StepGuard(&c, tid_);
}

bool ProcessContext::stopping() const {
  return cancel_ || backend_->controller().stop_requested();
}

ChildHandle ProcessContext::fork(std::function<void(ProcessContext&)> fn) {
  auto s = std::make_shared<ChildHandle::State>();
  const ThreadId child_tid{pid(), backend_->next_sub(pid())};
  s->ctx = std::make_unique<ProcessContext>(child_tid, backend_);
  s->backend = backend_;
  s->parent_tid = tid_;
  // The controller registers the child before it starts, so the live set
  // evolves at a deterministic point (the parent's own turn).
  backend_->controller().spawn(child_tid, [s, fn = std::move(fn)] {
    try {
      fn(*s->ctx);
    } catch (const ProcessCrashed&) {
      // The crash of the domain: nothing to do, the thread just stops.
      s->backend->controller().note_crash_unwind();
    } catch (const SimulationHalted&) {
      // Run over / thread cancelled.
      s->backend->controller().note_halt_unwind();
    } catch (...) {
      s->error = std::current_exception();
    }
    // Publish done-ness BEFORE leaving the controller: while this thread
    // is alive and unparked no other thread can be granted a step, so
    // every observer sees it at a schedule-determined point.
    s->done = true;
  });
  ChildHandle h;
  h.s_ = std::move(s);
  return h;
}

void ChildHandle::join(ProcessContext& parent) {
  if (!s_) return;
  while (!s_->done) parent.yield();
  if (!s_->joined) {
    s_->joined = true;
    s_->backend->controller().join(s_->ctx->tid());
  }
  if (s_->error) {
    auto e = s_->error;
    s_->error = nullptr;
    std::rethrow_exception(e);
  }
}

void ChildHandle::cancel() {
  if (s_ && s_->ctx) {
    s_->ctx->cancel_ = true;
  }
}

bool ChildHandle::done() const {
  return s_ && s_->done;
}

std::exception_ptr ChildHandle::error() const {
  if (!s_ || !s_->done) return nullptr;
  return s_->error;
}

ChildHandle::~ChildHandle() {
  if (!s_ || s_->joined) return;
  s_->joined = true;
  cancel();
  // The parent is abandoning the child (normal shutdown path or
  // exception unwind). While it waits, remove the parent from the grant
  // set so the child can be granted the steps it needs to observe the
  // cancel flag and unwind.
  //
  // Done unconditionally — NOT gated on done() — so the controller-state
  // trace is independent of whether the child has finished yet; this
  // keeps schedules replayable through simulator shutdown.
  LockstepController& c = s_->backend->controller();
  c.leave(s_->parent_tid);
  c.join(s_->ctx->tid());
  c.enter(s_->parent_tid);
}

}  // namespace mpcn
