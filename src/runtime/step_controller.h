// Step controllers: the scheduling substrate of the library.
//
// The paper's formal model is an interleaving model: a run is a sequence of
// atomic steps, one per shared-memory primitive operation, chosen by an
// asynchronous adversary. We reproduce it two ways:
//
//  * FreeController   — real hardware concurrency. Every process is an OS
//    thread; acquire()/release() are nearly free and threads race as the
//    OS schedules them. Used for stress tests and `--scheduler free` runs.
//  * LockstepController — a deterministic adversary. Every process is a
//    Fiber (fiber.h) on the one thread that calls run(). A fiber must
//    hold the (single) step token to perform a shared-memory operation.
//    The token is granted only when every live fiber is parked waiting
//    for it; a SchedulePolicy (schedule_policy.h) picks the next holder
//    from the sorted parked set, and the controller switches to it. Given
//    the policy's seed, the interleaving of shared-memory steps is
//    reproducible, which is what makes the crash-injection tests of the
//    paper's blocking lemmas (Lemma 1, Lemma 7) precise.
//
// A lock-step run is serial by definition, so it needs no OS threads, no
// locks and no wakeups: handing over the token is one context switch, and
// none at all when the policy re-grants the running fiber.
//
// All protocol-level blocking in the library is yield-spinning through a
// controller (no native blocking), so lock-step runs cannot deadlock on
// hidden OS-level waits.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/ids.h"
#include "src/runtime/fiber.h"
#include "src/runtime/schedule_policy.h"

namespace mpcn {

enum class SchedulerMode { kFree, kLockstep };

// One CPU-relax instruction (PAUSE/YIELD) — calms the pipeline inside
// spin loops without giving up the time slice.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Exponential yield-backoff for protocol-level spin loops. Escalates from
// cpu_relax through a doubling number of sched yields to short sleeps, so
// a loser of a long race stops competing for the core (free-mode step
// counts explode on few-core machines because spin reads count as
// steps). Constructed from a SchedulerMode it is a no-op under lock-step,
// where the controller already serializes every spin read and sleeping
// would only slow the deterministic schedule down.
class YieldBackoff {
 public:
  YieldBackoff() = default;
  explicit YieldBackoff(SchedulerMode mode)
      : active_(mode == SchedulerMode::kFree) {}

  void pause() {
    if (!active_) return;
    ++round_;
    if (round_ <= kRelaxRounds) {
      cpu_relax();
      return;
    }
    const unsigned over = round_ - kRelaxRounds;
    if (over <= kYieldDoublings) {
      for (unsigned i = 0; i < (1u << over); ++i) std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(sleep_slice(over - kYieldDoublings));
  }

  void reset() { round_ = 0; }

 private:
  static constexpr unsigned kRelaxRounds = 4;
  static constexpr unsigned kYieldDoublings = 5;  // 2..64 yields

  static std::chrono::microseconds sleep_slice(unsigned over) {
    const unsigned exp = over < 8 ? over : 8;
    return std::chrono::microseconds(1u << exp);  // 2us .. 256us
  }

  bool active_ = true;
  unsigned round_ = 0;
};

class StepController {
 public:
  using Deadline = std::chrono::steady_clock::time_point;

  virtual ~StepController() = default;

  virtual SchedulerMode mode() const = 0;

  // Thread lifecycle. spawn() registers `tid` with the step schedule and
  // starts `body` as that thread (lock-step: a fiber; free: an OS
  // thread). The creator registers the thread before it can run, so the
  // set of live threads evolves deterministically. `body` must not
  // throw; the thread leaves the schedule when it returns.
  virtual void spawn(ThreadId tid, std::function<void()> body) = 0;
  // Wait until thread `tid` has finished. A lock-step caller that waits
  // for an unfinished thread must have left() the schedule first.
  virtual void join(ThreadId tid) = 0;
  // Return once every spawned thread has finished (lock-step: the fibers
  // run on the calling thread). A run still going at `deadline` is
  // stopped and flagged timed out.
  virtual void run(Deadline deadline) = 0;

  // Take a running thread out of the grant set and put it back (a parent
  // waiting for a child it abandons).
  virtual void enter(ThreadId tid) = 0;
  virtual void leave(ThreadId tid) = 0;

  // Acquire the step token (blocking in lock-step mode). Returns false if
  // the run has been stopped instead of granting.
  virtual bool acquire(ThreadId tid) = 0;
  // Release the token after the atomic operation; advances the step clock.
  virtual void release(ThreadId tid) = 0;

  virtual void request_stop() = 0;
  virtual bool stop_requested() const = 0;
  virtual bool timed_out() const = 0;

  // Number of completed steps (the global step clock).
  virtual std::uint64_t steps() const = 0;

  // Debugging: the sequence of granted thread ids (lock-step only; empty
  // unless tracing was enabled). Used by determinism diagnostics.
  virtual std::vector<ThreadId> grant_trace() const { return {}; }
  virtual void enable_grant_trace() {}

  // Grant-trace indices at which the crash adversary crashed the granted
  // thread (explored crash plans under lock-step only; empty otherwise).
  // Together with grant_trace() this pins a crashing execution.
  virtual std::vector<std::uint64_t> crash_marks() const { return {}; }
};

// Free-running controller: one OS thread per process, no serialization,
// only step counting and the stop flag / step budget.
class FreeController : public StepController {
 public:
  explicit FreeController(std::uint64_t step_limit);

  SchedulerMode mode() const override { return SchedulerMode::kFree; }
  void spawn(ThreadId tid, std::function<void()> body) override;
  void join(ThreadId tid) override;
  void run(Deadline deadline) override;
  void enter(ThreadId) override {}
  void leave(ThreadId) override {}
  bool acquire(ThreadId) override;
  void release(ThreadId) override;
  void request_stop() override;
  bool stop_requested() const override;
  bool timed_out() const override;
  std::uint64_t steps() const override;

 private:
  const std::uint64_t step_limit_;
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> timed_out_{false};

  std::mutex m_;
  std::condition_variable finished_cv_;
  int running_ = 0;                         // spawned, body not returned
  std::map<ThreadId, std::thread> threads_;  // not yet joined
};

// Deterministic lock-step controller (see file comment). Single-threaded:
// every method runs on the thread that calls run().
class LockstepController : public StepController {
 public:
  // `policy` (non-null) picks every grant (schedule_policy.h).
  LockstepController(std::uint64_t step_limit,
                     std::shared_ptr<SchedulePolicy> policy);
  ~LockstepController() override;

  SchedulerMode mode() const override { return SchedulerMode::kLockstep; }
  void spawn(ThreadId tid, std::function<void()> body) override;
  void join(ThreadId tid) override;
  void run(Deadline deadline) override;
  void enter(ThreadId tid) override;
  void leave(ThreadId tid) override;
  bool acquire(ThreadId tid) override;
  void release(ThreadId tid) override;
  void request_stop() override { stop_ = true; }
  bool stop_requested() const override { return stop_; }
  bool timed_out() const override { return timed_out_; }
  std::uint64_t steps() const override { return steps_; }
  std::vector<ThreadId> grant_trace() const override { return grant_trace_; }
  void enable_grant_trace() override { trace_ = true; }
  std::vector<std::uint64_t> crash_marks() const override {
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
  // Picks the next token holder if every live fiber is parked, no one
  // holds the token and the run is not over.
  void maybe_grant();
  // The fiber that runs next once the current one stops (null = run()'s
  // caller): fibers that have not parked yet, then the token holder, then
  // — once the run is stopped — parked fibers, so they unwind.
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

  std::map<ThreadId, std::unique_ptr<Thread>> threads_;
  std::size_t alive_ = 0;  // threads in the grant set
  // The parked fibers, sorted by ThreadId: the runnable set every grant
  // picks from. parked_threads_ runs parallel to it.
  std::vector<ThreadId> parked_;
  std::vector<Thread*> parked_threads_;
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
