#include "src/runtime/step_controller.h"

#include <algorithm>

#include "src/common/errors.h"
#include "src/obs/metrics.h"

namespace mpcn {

struct LockstepController::Thread {
  ThreadId tid;
  std::unique_ptr<Fiber> fiber;  // runs the body, then finish()
  bool alive = false;     // in the grant set
  bool parked = false;    // suspended in acquire()
  bool finished = false;  // body returned
  Thread* joiner = nullptr;  // suspended in join() until this one finishes
};

namespace {
// The wall limit is read at every kClockGrants-th grant: a clock read per
// step would be a measurable share of a fiber switch.
constexpr std::uint64_t kClockGrants = 256;
}  // namespace

LockstepController::LockstepController(std::uint64_t step_limit,
                                       std::shared_ptr<SchedulePolicy> policy)
    : policy_(std::move(policy)), step_limit_(step_limit) {}

LockstepController::~LockstepController() = default;

LockstepController::Thread& LockstepController::thread(ThreadId tid) {
  const auto it = threads_.find(tid);
  if (it == threads_.end()) {
    throw ProtocolError("lock-step: unknown thread " + tid.to_string());
  }
  return *it->second;
}

void LockstepController::spawn(ThreadId tid, std::function<void()> body) {
  auto t = std::make_unique<Thread>();
  Thread* raw = t.get();
  t->tid = tid;
  t->fiber = std::make_unique<Fiber>(
      [this, raw, body = std::move(body)]() noexcept {
        reap();
        body();
        finish(raw);
      });
  if (!threads_.emplace(tid, std::move(t)).second) {
    throw ProtocolError("lock-step: thread " + tid.to_string() +
                        " spawned twice");
  }
  enter(tid);
  ready_.push_back(raw);
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
  static Counter& halt_unwinds =
      metrics_registry().counter("runtime.halt_unwinds");
  static Counter& crash_unwinds =
      metrics_registry().counter("runtime.crash_unwinds");
  switches.add(switches_);
  halt_unwinds.add(halt_unwinds_);
  crash_unwinds.add(crash_unwinds_);
}

void LockstepController::enter(ThreadId tid) {
  Thread& t = thread(tid);
  if (t.alive) return;
  t.alive = true;
  const auto at = std::lower_bound(live_.begin(), live_.end(), tid);
  live_threads_.insert(live_threads_.begin() + (at - live_.begin()), &t);
  live_.insert(at, tid);
}

void LockstepController::leave(ThreadId tid) {
  Thread& t = thread(tid);
  if (t.alive) {
    t.alive = false;
    const auto at = std::lower_bound(live_.begin(), live_.end(), tid);
    live_threads_.erase(live_threads_.begin() + (at - live_.begin()));
    live_.erase(at);
  }
  // The live set shrank: if everyone left is parked, the grant is due now.
  maybe_grant();
}

void LockstepController::join(ThreadId tid) {
  Thread& t = thread(tid);
  if (t.finished) return;
  if (current_ == nullptr || current_->alive) {
    throw ProtocolError("lock-step: joining unfinished thread " +
                        tid.to_string() +
                        " needs a caller outside the grant set");
  }
  t.joiner = current_;
  dispatch();
}

bool LockstepController::acquire(ThreadId tid) {
  // All fibers share this thread's C++ exception state, so no fiber may
  // switch away inside a catch handler: ending that handler would pop
  // whichever exception another fiber caught last. No process body steps
  // inside one. Unwinding is fine (~ChildHandle waits for children while
  // an exception is in flight): an exception in flight is not on the
  // caught-exception stack.
  if (stop_) return false;
  Thread* self = current_;
  if (self == nullptr || !(self->tid == tid)) {
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
  if (holder_ != nullptr && holder_->tid == tid) holder_ = nullptr;
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
  if (steps_ % kClockGrants == 0 &&
      std::chrono::steady_clock::now() >= deadline_) {
    stop_ = true;
    timed_out_ = true;
    return;
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
  holder_ = live_threads_[choice.index];
  // A crash lands only through a director, which refuses it once the
  // budget is spent or the process already crashed.
  const bool crash_here = choice.crash && crash_director_ != nullptr &&
                          crash_director_->direct_crash(holder_->tid);
  if (trace_) {
    if (crash_here) crash_marks_.push_back(grant_trace_.size());
    grant_trace_.push_back(holder_->tid);
  }
}

LockstepController::Thread* LockstepController::pick_next() {
  if (!ready_.empty()) {
    Thread* t = ready_.front();
    ready_.pop_front();
    return t;
  }
  if (holder_ != nullptr) return holder_;
  if (stop_ && n_parked_ > 0) {
    // Every parked fiber is live, so the first one in the sorted live
    // set is the lowest parked ThreadId.
    for (Thread* t : live_threads_) {
      if (t->parked) return t;
    }
  }
  return nullptr;
}

void LockstepController::switch_to(Thread* next) {
  Thread* self = current_;
  if (next == self) return;
  current_ = next;
  ++switches_;
  Fiber::switch_to(self ? *self->fiber : *caller_,
                   next ? *next->fiber : *caller_);
  reap();
}

void LockstepController::dispatch() {
  maybe_grant();
  switch_to(pick_next());
}

void LockstepController::finish(Thread* t) {
  t->finished = true;
  if (t->joiner != nullptr) {
    ready_.push_back(t->joiner);
    t->joiner = nullptr;
  }
  leave(t->tid);
  Thread* next = pick_next();
  zombie_ = t;
  current_ = next;
  ++switches_;
  Fiber::exit_to(next ? *next->fiber : *caller_);
}

void LockstepController::reap() {
  if (zombie_ == nullptr) return;
  zombie_->fiber.reset();
  zombie_ = nullptr;
}

}  // namespace mpcn
