// Fiber: an execution context with its own stack, switched by hand on one
// OS thread.
//
// The lock-step runtime (step_controller.h) runs every process of an
// Execution as a Fiber on the thread that calls Execution::run and
// switches between them at step grants. A fiber starts through ucontext:
// the constructor prepares it with getcontext/makecontext, and its first
// entry is one setcontext. Every later switch is a _setjmp/_longjmp pair,
// which saves and restores only registers and the stack pointer: no
// signal mask, so no system call. All fibers therefore share the thread's
// signal mask; no process body changes it. TSan builds switch with
// swapcontext instead: TSan intercepts _setjmp/_longjmp, and under them
// a TSan run's memory grew with every switch (to gigabytes over a
// multi-million-step run), while swapcontext is what its fiber API
// expects.
//
// A fiber's stack is kStackSize bytes of mmap'ed memory above one
// PROT_NONE guard page, so an overflow faults instead of corrupting a
// neighbour. A destroyed Fiber's stack goes to a small per-thread cache
// for the thread's next fibers, and is unmapped when the cache is full
// or the thread exits.
//
// Sanitizers see every switch through their fiber APIs: ASan's
// start/finish_switch_fiber keep its stack bookkeeping right, and TSan's
// create/switch_to/destroy_fiber give each fiber its own shadow state.
#pragma once

#include <setjmp.h>
#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace mpcn {

class Fiber {
 public:
  static constexpr std::size_t kStackSize = 256 * 1024;

  // The calling context (a thread's own stack) as a switch target. Owns
  // no stack.
  Fiber();
  // A fiber that runs `entry` on a fresh stack when first switched to.
  // `entry` must not return: it ends with exit_to().
  explicit Fiber(std::function<void()> entry);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Save the running context into `from` and resume `to`. Returns when
  // something switches back to `from`.
  static void switch_to(Fiber& from, Fiber& to);
  // The last switch of the running fiber, whose entry has finished: it is
  // never resumed, and may be destroyed once `to` runs.
  [[noreturn]] static void exit_to(Fiber& to);

 private:
  static void trampoline(unsigned hi, unsigned lo);
  // Jump into `to`: its first entry, or back to where it last switched
  // away. Sanitizers must already have been told about the switch.
  [[noreturn]] static void resume(Fiber& to);
  // Sanitizer bookkeeping on arrival in this context.
  void arrived();

  // The first entry, for a fiber with a stack; in TSan builds, also where
  // the fiber last switched away.
  ucontext_t ctx_{};
  jmp_buf jmp_{};     // where the fiber last switched away
  bool entered_ = true;  // false until a stack fiber's first entry
  std::function<void()> entry_;
  void* stack_ = nullptr;  // guard page + stack mapping; null for Fiber()
  // The stack's lowest usable address and size. Learned on the first
  // switch away for a Fiber() context (ASan builds only need it).
  const void* stack_bottom_ = nullptr;
  std::size_t stack_size_ = 0;
  void* asan_fake_stack_ = nullptr;
  void* tsan_fiber_ = nullptr;
};

}  // namespace mpcn
