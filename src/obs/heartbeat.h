// The in-run heartbeat hook: how a shard worker beats while one long job
// runs on its one thread.
//
// The lock-step controller reads the clock at every 256th grant to check
// the wall limit (step_controller.cc) and hands that reading to
// heartbeat_tick(). A shard worker with streaming telemetry armed
// installs a hook there (src/dist/shard.cc), which beats once its
// interval has passed; no other process installs one, so a tick costs
// them a call, a load and a branch.
//
// A hook runs between two grants, on whichever fiber is parking: it must
// never throw and must leave the run alone. The worker's only reads the
// metrics registry and writes a telemetry line, so no grant moves.
#pragma once

#include <chrono>

namespace mpcn {

using HeartbeatHook =
    void (*)(void* arg, std::chrono::steady_clock::time_point now) noexcept;

// Install `hook` (called as hook(arg, now) on every tick), or remove the
// installed one with nullptr. One hook per process.
void set_heartbeat_hook(HeartbeatHook hook, void* arg);

// A clock reading from inside a run: calls the installed hook, if any.
void heartbeat_tick(std::chrono::steady_clock::time_point now) noexcept;

}  // namespace mpcn
