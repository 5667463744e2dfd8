// CooperativeMutex: the paper's mutex1 / mutex2 (Section 3.2.3, 3.3).
//
// "Let us notice that such a mutex object is purely local to each
// simulator: it solves conflicts among the simulating threads inside each
// simulator, and has nothing to do with the memory shared by the
// simulators."
//
// Being local, a wait for the mutex is no model step: a thread that finds
// it held waits off the schedule (ProcessContext::wait) and takes no step
// until an unlock. The unlock wakes every waiter, and each takes one step
// before it retries, so the schedule still picks which waiter, or the
// thread that released the mutex, takes it next. A cancel, a crash of the
// waiter's domain and the run's stop wake a waiter too, and its step then
// unwinds it. The flag is a plain bool: the threads of one simulator are
// fibers that take turns.
//
// Crash semantics: if a thread crashes while *holding* the mutex, the
// RAII lock releases it during unwind — harmless, because the mutex is
// local to one crash domain: every sibling thread is crashed too and will
// throw at its next step before performing any shared-memory operation.
#pragma once

#include "src/runtime/process_context.h"

namespace mpcn {

class CooperativeMutex {
 public:
  void lock(ProcessContext& ctx);
  bool try_lock();
  // Releases the mutex and wakes its waiters.
  void unlock();

 private:
  bool locked_ = false;
  WaitList waiters_;
};

// RAII lock; the constructor may throw ProcessCrashed / SimulationHalted
// out of its retry step (in which case nothing is held).
class CoopLock {
 public:
  CoopLock(CooperativeMutex& m, ProcessContext& ctx) : m_(&m) {
    m_->lock(ctx);
  }
  CoopLock(const CoopLock&) = delete;
  CoopLock& operator=(const CoopLock&) = delete;
  ~CoopLock() { m_->unlock(); }

 private:
  CooperativeMutex* m_;
};

}  // namespace mpcn
