#include "src/obs/progress.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>

namespace mpcn {

bool progress_allowed() {
  static const bool allowed = [] {
    const char* force = std::getenv("MPCN_PROGRESS");
    if (force != nullptr && force[0] == '1' && force[1] == '\0') return true;
    return ::isatty(STDERR_FILENO) == 1;
  }();
  return allowed;
}

std::chrono::milliseconds progress_interval(int fallback_ms) {
  static const long env_ms = [] {
    const char* s = std::getenv("MPCN_PROGRESS_MS");
    if (s == nullptr || *s == '\0') return 0L;
    char* end = nullptr;
    long v = std::strtol(s, &end, 10);
    return (end != nullptr && *end == '\0' && v > 0) ? v : 0L;
  }();
  if (env_ms > 0) return std::chrono::milliseconds(env_ms);
  return std::chrono::milliseconds(fallback_ms > 0 ? fallback_ms : 500);
}

ProgressMeter::ProgressMeter(bool enabled, const char* label,
                             const char* unit, int total, int interval_ms)
    : label_(label), unit_(unit), total_(total),
      interval_(progress_interval(interval_ms)) {
  if (!enabled || !progress_allowed()) return;
  started_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { loop(); });
}

ProgressMeter::~ProgressMeter() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  print();  // final line: the completed count at teardown
}

void ProgressMeter::loop() {
  std::unique_lock<std::mutex> lk(m_);
  while (!cv_.wait_for(lk, interval_, [this] { return stop_; })) {
    print();
  }
}

void ProgressMeter::print() const {
  print_progress(label_, unit_, completed_.load(std::memory_order_relaxed),
                 total_, started_);
}

void print_progress(const char* label, const char* unit, long long done,
                    long long total,
                    std::chrono::steady_clock::time_point started) {
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  const double rate = secs > 0 ? static_cast<double>(done) / secs : 0.0;
  const double eta =
      rate > 0 ? static_cast<double>(total - done) / rate : 0.0;
  std::fprintf(stderr, "[%s] %lld/%lld %s (%.0f/s, eta %.1fs)\n", label,
               done, total, unit, rate, eta > 0 ? eta : 0.0);
}

}  // namespace mpcn
