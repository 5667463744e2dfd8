// Fortify turns _longjmp into __longjmp_chk, which aborts on a jump to a
// lower stack address: the first switch onto a fiber stack below ours.
#undef _FORTIFY_SOURCE

#include "src/runtime/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#define MPCN_ASAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPCN_ASAN_FIBERS 1
#endif
#endif

#ifdef MPCN_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace mpcn {

namespace {

#ifdef MPCN_ASAN_FIBERS
// The context the current switch leaves; arrived() learns the stack
// bounds of a Fiber() context from it.
thread_local Fiber* tl_leaving = nullptr;
#endif

std::size_t page_size() {
  static const std::size_t size =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

// One stack mapping: a PROT_NONE guard page below kStackSize usable
// bytes (stacks grow down).
std::size_t mapping_size() { return page_size() + Fiber::kStackSize; }

void* map_stack() {
  void* map = ::mmap(nullptr, mapping_size(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (map == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "fiber stack");
  }
  if (::mprotect(map, page_size(), PROT_NONE) != 0) {
    const int err = errno;
    ::munmap(map, mapping_size());
    throw std::system_error(err, std::generic_category(), "fiber stack");
  }
  return map;
}

}  // namespace

Fiber::Fiber(Entry entry, void* arg)
    : entry_(entry), arg_(arg), stack_(map_stack()) {
  if (::getcontext(&ctx_) != 0) {
    const int err = errno;
    ::munmap(stack_, mapping_size());
    throw std::system_error(err, std::generic_category(), "fiber context");
  }
  stack_bottom_ = static_cast<char*>(stack_) + page_size();
  stack_size_ = kStackSize;
  ctx_.uc_stack.ss_sp = static_cast<char*>(stack_) + page_size();
  ctx_.uc_stack.ss_size = kStackSize;
  ctx_.uc_link = nullptr;
  entered_ = false;
  // makecontext passes int arguments only: hand `this` over in halves.
  const auto self =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  ::makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
}

Fiber::~Fiber() {
  if (stack_ != nullptr) ::munmap(stack_, mapping_size());
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(static_cast<std::uintptr_t>(
      (static_cast<std::uint64_t>(hi) << 32) | lo));
  self->arrived();
  self->entry_(self->arg_);
  std::abort();  // an entry never returns
}

void Fiber::switch_to(Fiber& from, Fiber& to) {
  if (_setjmp(from.jmp_) == 0) {
#ifdef MPCN_ASAN_FIBERS
    tl_leaving = &from;
    __sanitizer_start_switch_fiber(&from.asan_fake_stack_, to.stack_bottom_,
                                   to.stack_size_);
#endif
    if (to.entered_) _longjmp(to.jmp_, 1);
    to.entered_ = true;
    ::setcontext(&to.ctx_);
    std::abort();  // setcontext returns only on failure
  }
  from.arrived();
}

void Fiber::arrived() {
#ifdef MPCN_ASAN_FIBERS
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &bottom, &size);
  if (tl_leaving != nullptr && tl_leaving->stack_ == nullptr) {
    tl_leaving->stack_bottom_ = bottom;
    tl_leaving->stack_size_ = size;
  }
#endif
}

}  // namespace mpcn
