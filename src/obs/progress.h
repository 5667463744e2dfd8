// The --progress heartbeat: "[label] done/total unit (rate/s, eta Ns)"
// on stderr while a batch of work drains, printed by the caller's own
// loop — tick() prints at most once per interval, and the meter prints
// once more at teardown. No thread, lock or condition variable: a
// process that never started a second thread keeps glibc's
// single-threaded fast paths, and so do the shard workers it forks. The
// in-process batch and explore loops tick once per cell or schedule; the
// shard coordinator ticks by the cells of each reply.
//
// Sidecar-only like the rest of src/obs/: output goes to stderr, so
// report streams and --json files never see it. Disabled meters are
// inert — tick() tests one flag. The heartbeat also self-suppresses
// when stderr is not a TTY (a redirected CI log would otherwise fill
// with heartbeat spam); the final completion line is dropped with it.
// Set MPCN_PROGRESS=1 to force heartbeats through a redirect, and
// MPCN_PROGRESS_MS to change the interval (default 500 ms).
#pragma once

#include <chrono>

namespace mpcn {

// True when progress output may be printed: stderr is a TTY, or the
// env override MPCN_PROGRESS=1 forces it. Evaluated once per process.
bool progress_allowed();

class ProgressMeter {
 public:
  // `label` and `unit` must outlive the meter (string literals).
  // `enabled` is further gated by progress_allowed().
  ProgressMeter(bool enabled, const char* label, const char* unit,
                long long total);
  ~ProgressMeter();
  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  // `n` units of work finished; prints when the interval has passed
  // since the last line.
  void tick(long long n = 1) {
    if (enabled_) advance(n);
  }

 private:
  void advance(long long n);
  void print() const;

  const char* label_;
  const char* unit_;
  const long long total_;
  const bool enabled_;
  long long completed_ = 0;
  std::chrono::milliseconds interval_{};
  std::chrono::steady_clock::time_point started_{};
  std::chrono::steady_clock::time_point last_{};
};

}  // namespace mpcn
