#include "src/runtime/step_controller.h"

#include <algorithm>
#include <optional>

#include "src/common/errors.h"
#include "src/obs/heartbeat.h"
#include "src/obs/metrics.h"
#include "src/runtime/process_context.h"

namespace mpcn {

struct LockstepController::Slot {
  Slot() : fiber(&LockstepController::slot_main, this) {}

  Fiber fiber;  // parked between bodies
  // The run this slot serves, and its thread there.
  LockstepController* controller = nullptr;
  std::optional<ProcessContext> ctx;
  Body body;
  WaitList ended;                // its ChildHandle's waiter, until it ends
  WaitList* waits_on = nullptr;  // suspended in wait() on this list
  Slot* next_waiter = nullptr;   // waits_on's link
  Slot* next_ready = nullptr;    // the ready list's link
  bool alive = false;          // in the grant set
  bool parked = false;         // suspended in acquire()
  bool interruptible = false;  // its wait also ends at a cancel/crash/stop
  bool finished = false;       // body returned
  bool joined = false;         // a ChildHandle has waited for it
  std::exception_ptr error;    // the body's non-crash, non-halt exception
};

namespace {

// The clock is read at every kClockGrants-th grant, for the wall limit
// and the in-run heartbeat (src/obs/heartbeat.h): a clock read per step
// would be a measurable share of a fiber switch.
constexpr std::uint64_t kClockGrants = 256;

// Idle slots kept per OS thread. A fresh slot costs a stack mapping
// (mmap, mprotect, first-touch page faults) and the ucontext calls: more
// than a whole short schedule, paid again by every schedule of a search
// or cell of a grid that runs after it on the same thread.
constexpr std::size_t kPooledSlots = 64;

// This OS thread's idle slots, their fibers parked where their last body
// ended.
thread_local std::vector<std::unique_ptr<LockstepController::Slot>> tl_idle;

}  // namespace

LockstepController::LockstepController(std::uint64_t step_limit,
                                       std::shared_ptr<SchedulePolicy> policy)
    : policy_(std::move(policy)), step_limit_(step_limit) {
  slots_.reserve(kPooledSlots);
  live_.reserve(kPooledSlots);
  live_slots_.reserve(kPooledSlots);
}

LockstepController::~LockstepController() {
  for (std::unique_ptr<Slot>& s : slots_) {
    // A body that never finished (a run abandoned midway) left its frames
    // on the fiber, which can run no other body.
    if (s->finished && tl_idle.size() < kPooledSlots) {
      tl_idle.push_back(std::move(s));
    }
  }
}

void LockstepController::enable_grant_trace() {
  trace_ = true;
  // One block for the traces of short runs (a racy_register schedule
  // takes 16 grants), instead of one per doubling.
  grant_trace_.reserve(256);
}

LockstepController::Slot& LockstepController::spawn(ThreadId tid,
                                                    Execution& exec,
                                                    Body body) {
  if (tl_idle.empty()) {
    slots_.push_back(std::make_unique<Slot>());
    ++fiber_contexts_;
  } else {
    slots_.push_back(std::move(tl_idle.back()));
    tl_idle.pop_back();
  }
  Slot& s = *slots_.back();
  s.controller = this;
  s.ctx.emplace(tid, exec);
  s.body = std::move(body);
  s.finished = s.joined = false;
  s.error = nullptr;
  enter(s);
  push_ready(&s);
  return s;
}

void LockstepController::slot_main(void* slot) {
  Slot& s = *static_cast<Slot*>(slot);
  for (;;) {
    // s.controller is the run that spawned this body: once the slot has
    // gone back to the pool and been taken again, a later run's.
    Fiber& next = s.controller->run_body(s);
    Fiber::switch_to(s.fiber, next);
  }
}

Fiber& LockstepController::run_body(Slot& s) {
  try {
    s.body(*s.ctx);
  } catch (const ProcessCrashed&) {
    // The crash of the domain: nothing to do, the thread just stops.
    ++crash_unwinds_;
  } catch (const SimulationHalted&) {
    // Run over / thread cancelled.
    ++halt_unwinds_;
  } catch (...) {
    s.error = std::current_exception();
  }
  s.body = nullptr;  // its captures go now, not when the slot is reused
  // Publish done-ness BEFORE leaving the schedule: while this thread is
  // alive and unparked no other thread can be granted a step, so every
  // observer sees it at a schedule-determined point.
  s.finished = true;
  s.ended.wake_all();
  leave(s);
  Slot* next = pick_next();
  current_ = next;
  ++switches_;
  return next != nullptr ? next->fiber : *caller_;
}

void LockstepController::run(Deadline deadline) {
  deadline_ = deadline;
  Fiber caller;
  caller_ = &caller;
  // Returns once every fiber has finished: pick_next() hands control back
  // to the caller only when no fiber is ready, granted or parked.
  dispatch();
  caller_ = nullptr;
  static Counter& switches = metrics_registry().counter("runtime.switches");
  static Counter& fiber_contexts =
      metrics_registry().counter("runtime.fiber_contexts");
  static Counter& halt_unwinds =
      metrics_registry().counter("runtime.halt_unwinds");
  static Counter& crash_unwinds =
      metrics_registry().counter("runtime.crash_unwinds");
  switches.add(switches_);
  fiber_contexts.add(fiber_contexts_);
  halt_unwinds.add(halt_unwinds_);
  crash_unwinds.add(crash_unwinds_);
}

void LockstepController::enter(Slot& s) {
  if (s.alive) return;
  s.alive = true;
  const auto at = std::lower_bound(live_.begin(), live_.end(), s.ctx->tid());
  live_slots_.insert(live_slots_.begin() + (at - live_.begin()), &s);
  live_.insert(at, s.ctx->tid());
}

void LockstepController::leave(Slot& s) {
  if (s.alive) {
    s.alive = false;
    const auto at =
        std::lower_bound(live_.begin(), live_.end(), s.ctx->tid());
    live_slots_.erase(live_slots_.begin() + (at - live_.begin()));
    live_.erase(at);
  }
  // The live set shrank: if everyone left is parked, the grant is due now.
  maybe_grant();
}

void LockstepController::wait(WaitList& list, bool interruptible) {
  Slot* self = current_;
  if (self == nullptr || holder_ == self) {
    throw ProtocolError(
        "lock-step: a wait needs a thread's fiber not holding the token");
  }
  self->waits_on = &list;
  self->interruptible = interruptible;
  self->next_waiter = list.head_;
  list.head_ = self;
  ++n_waiting_;
  leave(*self);  // grants if every thread left is parked
  switch_to(pick_next());
  // Woken: wake() has re-entered this thread into the grant set.
}

void LockstepController::wake(Slot& s) {
  Slot** link = &s.waits_on->head_;
  while (*link != &s) link = &(*link)->next_waiter;
  *link = s.next_waiter;
  s.next_waiter = nullptr;
  s.waits_on = nullptr;
  --n_waiting_;
  enter(s);
  push_ready(&s);
}

void LockstepController::interrupt(Slot& s) {
  if (s.waits_on != nullptr && s.interruptible) wake(s);
}

void LockstepController::wake_domain(ProcessId pid) {
  if (n_waiting_ == 0) return;
  for (const std::unique_ptr<Slot>& s : slots_) {
    if (s->ctx->pid() == pid) interrupt(*s);
  }
}

void WaitList::wake_all() {
  while (head_ != nullptr) head_->controller->wake(*head_);
}

bool LockstepController::acquire(ThreadId tid) {
  // All fibers share this thread's C++ exception state, so no fiber may
  // switch away inside a catch handler: ending that handler would pop
  // whichever exception another fiber caught last. No process body steps
  // inside one. Unwinding is fine (~ChildHandle waits for children while
  // an exception is in flight): an exception in flight is not on the
  // caught-exception stack.
  if (stop_) return false;
  Slot* self = current_;
  if (self == nullptr || !(self->ctx->tid() == tid)) {
    throw ProtocolError("lock-step: " + tid.to_string() +
                        " acquired the token off its own fiber");
  }
  self->parked = true;
  ++n_parked_;
  dispatch();
  // Resumed: granted the token, or the run is over.
  self->parked = false;
  --n_parked_;
  if (stop_) {
    if (holder_ == self) holder_ = nullptr;
    return false;
  }
  return true;
}

void LockstepController::release(ThreadId tid) {
  // The releaser is live and unparked, so no grant can be due here; the
  // next one is drawn when it parks or ends.
  if (holder_ != nullptr && holder_->ctx->tid() == tid) holder_ = nullptr;
  ++steps_;
  if (steps_ >= step_limit_ && !stop_) {
    stop_ = true;
    timed_out_ = true;
  }
}

void LockstepController::maybe_grant() {
  if (stop_ || holder_ != nullptr || live_.empty() ||
      n_parked_ != live_.size()) {
    return;
  }
  if (steps_ % kClockGrants == 0) {
    const Deadline now = std::chrono::steady_clock::now();
    heartbeat_tick(now);
    if (now >= deadline_) {
      stop_ = true;
      timed_out_ = true;
      return;
    }
  }
  // Deterministic grant: every live fiber is parked, so the choice
  // depends only on the policy's state and the sorted live set.
  GrantChoice choice = policy_->pick(live_, crash_director_);
  if (choice.index >= live_.size()) {
    // Cannot throw here: a grant fires while a fiber parks or ends.
    // Record the fault, keep the run live with a clamped grant that
    // carries no crash, and let Execution::run surface it afterwards.
    if (policy_error_.empty()) {
      policy_error_ = "SchedulePolicy::pick returned index " +
                      std::to_string(choice.index) +
                      " for a runnable set of " +
                      std::to_string(live_.size()) + " at step " +
                      std::to_string(steps_);
    }
    choice = GrantChoice{live_.size() - 1, false};
  }
  holder_ = live_slots_[choice.index];
  const ThreadId granted = live_[choice.index];
  // A crash lands only through a director, which refuses it once the
  // budget is spent or the process already crashed.
  const bool crash_here = choice.crash && crash_director_ != nullptr &&
                          crash_director_->direct_crash(granted);
  if (trace_) {
    if (crash_here) crash_marks_.push_back(grant_trace_.size());
    grant_trace_.push_back(granted);
  }
}

void LockstepController::push_ready(Slot* s) {
  if (ready_tail_ != nullptr) {
    ready_tail_->next_ready = s;
  } else {
    ready_head_ = s;
  }
  ready_tail_ = s;
}

LockstepController::Slot* LockstepController::pick_next() {
  if (ready_head_ == nullptr) {
    if (holder_ != nullptr) return holder_;
    if (live_.empty() && n_waiting_ > 0 && !stop_) {
      // Every unfinished thread waits, so no thread is left to wake one.
      stop_ = true;
      timed_out_ = true;
    }
    if (!stop_) return nullptr;
    if (n_parked_ > 0) {
      // Every parked fiber is live, so the first one in the sorted live
      // set is the lowest parked ThreadId.
      for (Slot* s : live_slots_) {
        if (s->parked) return s;
      }
    }
    // Then the interruptible waiters, in spawn order. A waiter that is
    // not interruptible waits for a child's end, and that child is
    // parked, waiting or ready itself.
    if (n_waiting_ > 0) {
      for (const std::unique_ptr<Slot>& s : slots_) interrupt(*s);
    }
    if (ready_head_ == nullptr) return nullptr;
  }
  Slot* s = ready_head_;
  ready_head_ = s->next_ready;
  if (ready_head_ == nullptr) ready_tail_ = nullptr;
  s->next_ready = nullptr;
  return s;
}

void LockstepController::switch_to(Slot* next) {
  Slot* self = current_;
  if (next == self) return;
  current_ = next;
  ++switches_;
  Fiber::switch_to(self != nullptr ? self->fiber : *caller_,
                   next != nullptr ? next->fiber : *caller_);
}

void LockstepController::dispatch() {
  maybe_grant();
  switch_to(pick_next());
}

// ---- ChildHandle ----------------------------------------------------------

ChildHandle::~ChildHandle() {
  if (s_ == nullptr || s_->joined) return;
  // The parent (the running thread) is abandoning the child: normal
  // shutdown or exception unwind. It waits off the schedule, so the
  // child can be granted the steps it needs to finish a propose its
  // cancel waits for, observe the cancel flag and unwind.
  cancel();
  await_end();
}

void ChildHandle::await_end() {
  s_->joined = true;
  // Only the child's end (run_body) wakes this wait.
  if (!s_->finished) s_->controller->wait(s_->ended, /*interruptible=*/false);
}

void ChildHandle::join() {
  if (s_ == nullptr) return;
  if (!s_->joined) await_end();
  if (s_->error) {
    std::exception_ptr e = s_->error;
    s_->error = nullptr;
    std::rethrow_exception(e);
  }
}

void ChildHandle::cancel() {
  if (s_ == nullptr) return;
  s_->ctx->cancel_ = true;
  s_->controller->interrupt(*s_);
}

bool ChildHandle::done() const { return s_ != nullptr && s_->finished; }

std::exception_ptr ChildHandle::error() const {
  if (s_ == nullptr || !s_->finished) return nullptr;
  return s_->error;
}

}  // namespace mpcn
