#include "src/runtime/cooperative_mutex.h"

#include <utility>

namespace mpcn {

void CooperativeMutex::lock(ProcessContext& ctx) {
  while (!try_lock()) {
    ctx.wait(waiters_);
    ctx.yield();
  }
}

bool CooperativeMutex::try_lock() { return !std::exchange(locked_, true); }

void CooperativeMutex::unlock() {
  locked_ = false;
  waiters_.wake_all();
}

}  // namespace mpcn
