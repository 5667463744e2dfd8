// The --progress heartbeat: a sampling thread that prints
// "[label] done/total unit (rate/s, eta Ns)" to stderr while a batch of
// work drains, plus a final line at completion. The shard coordinator
// prints the same line from its own poll loop (print_progress), under
// the same TTY rule and interval.
//
// Sidecar-only like the rest of src/obs/: output goes to stderr, so
// report streams and --json files never see it. Disabled meters are
// inert — tick() is one relaxed increment, construction spawns nothing.
// The heartbeat also self-suppresses when stderr is not a TTY (a
// redirected CI log would otherwise fill with heartbeat spam); the
// final completion line is dropped with it. Set MPCN_PROGRESS=1 to
// force heartbeats through a redirect, and MPCN_PROGRESS_MS to change
// the interval (default 500 ms).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace mpcn {

// True when progress output may be printed: stderr is a TTY, or the
// env override MPCN_PROGRESS=1 forces it. Evaluated once per process.
bool progress_allowed();

// Heartbeat interval: MPCN_PROGRESS_MS when set to a positive integer,
// else `fallback_ms`. Evaluated once per process.
std::chrono::milliseconds progress_interval(int fallback_ms = 500);

// Print one heartbeat line to stderr, its rate measured since `started`.
// Callers check progress_allowed() first.
void print_progress(const char* label, const char* unit, long long done,
                    long long total,
                    std::chrono::steady_clock::time_point started);

class ProgressMeter {
 public:
  // `label` and `unit` must outlive the meter (string literals).
  // `enabled` is further gated by progress_allowed(); `interval_ms`
  // (<= 0 means default) is overridden by MPCN_PROGRESS_MS.
  ProgressMeter(bool enabled, const char* label, const char* unit,
                int total, int interval_ms = 0);
  ~ProgressMeter();
  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  // One unit of work finished. Wait-free; any thread.
  void tick() { completed_.fetch_add(1, std::memory_order_relaxed); }

 private:
  void loop();
  void print() const;

  const char* label_;
  const char* unit_;
  const int total_;
  std::chrono::milliseconds interval_{500};
  std::atomic<int> completed_{0};
  std::chrono::steady_clock::time_point started_{};
  std::thread thread_;
  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace mpcn
