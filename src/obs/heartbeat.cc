#include "src/obs/heartbeat.h"

namespace mpcn {

namespace {

HeartbeatHook g_hook = nullptr;
void* g_hook_arg = nullptr;

}  // namespace

void set_heartbeat_hook(HeartbeatHook hook, void* arg) {
  g_hook = hook;
  g_hook_arg = arg;
}

void heartbeat_tick(std::chrono::steady_clock::time_point now) noexcept {
  if (g_hook != nullptr) g_hook(g_hook_arg, now);
}

}  // namespace mpcn
