// Fiber: an execution context with its own stack, switched by hand on one
// OS thread.
//
// The lock-step runtime (step_controller.h) runs every process of an
// Execution as a Fiber on the thread that calls Execution::run and
// switches between them at step grants. A fiber is made once: the
// constructor prepares it with getcontext/makecontext, and its first
// entry is one setcontext. Every later switch is a _setjmp/_longjmp pair,
// which saves and restores only registers and the stack pointer: no
// signal mask, so no system call. All fibers therefore share the thread's
// signal mask; no process body changes it.
//
// A fiber's entry never returns. The controller's entry is a loop that
// runs one thread body after another and parks the fiber in between, so
// a made fiber serves many threads: the controller keeps parked fibers in
// a per-OS-thread pool, and only a pool miss pays for a stack mapping and
// the ucontext calls. A fiber is destroyed parked, from another context.
//
// A fiber's stack is kStackSize bytes of mmap'ed memory above one
// PROT_NONE guard page, so an overflow faults instead of corrupting a
// neighbour.
//
// ASan sees every switch through its fiber API: start/finish_switch_fiber
// keep its stack bookkeeping right.
#pragma once

#include <setjmp.h>
#include <ucontext.h>

#include <cstddef>

namespace mpcn {

class Fiber {
 public:
  static constexpr std::size_t kStackSize = 256 * 1024;
  using Entry = void (*)(void* arg);

  // The calling context (a thread's own stack) as a switch target. Owns
  // no stack.
  Fiber() = default;
  // A fiber that runs entry(arg) on a fresh stack when first switched to.
  // `entry` must never return.
  Fiber(Entry entry, void* arg);
  // Unmaps the stack of a fiber parked in a switch, or never entered.
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Save the running context into `from` and resume `to`: its first
  // entry, or where it last switched away. Returns when something
  // switches back to `from`.
  static void switch_to(Fiber& from, Fiber& to);

 private:
  static void trampoline(unsigned hi, unsigned lo);
  // Sanitizer bookkeeping on arrival in this context.
  void arrived();

  // The first entry, for a fiber with a stack.
  ucontext_t ctx_{};
  jmp_buf jmp_{};     // where the fiber last switched away
  bool entered_ = true;  // false until a stack fiber's first entry
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  void* stack_ = nullptr;  // guard page + stack mapping; null for Fiber()
  // The stack's lowest usable address and size. Learned on the first
  // switch away for a Fiber() context (ASan builds only need it).
  const void* stack_bottom_ = nullptr;
  std::size_t stack_size_ = 0;
  void* asan_fake_stack_ = nullptr;
};

}  // namespace mpcn
