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

namespace {

// Heartbeat interval: MPCN_PROGRESS_MS when set to a positive integer,
// else 500 ms. Evaluated once per process.
std::chrono::milliseconds progress_interval() {
  static const long ms = [] {
    const char* s = std::getenv("MPCN_PROGRESS_MS");
    if (s == nullptr || *s == '\0') return 500L;
    char* end = nullptr;
    long v = std::strtol(s, &end, 10);
    return (end != nullptr && *end == '\0' && v > 0) ? v : 500L;
  }();
  return std::chrono::milliseconds(ms);
}

}  // namespace

ProgressMeter::ProgressMeter(bool enabled, const char* label,
                             const char* unit, long long total)
    : label_(label), unit_(unit), total_(total),
      enabled_(enabled && progress_allowed()) {
  if (!enabled_) return;
  interval_ = progress_interval();
  started_ = last_ = std::chrono::steady_clock::now();
}

ProgressMeter::~ProgressMeter() {
  if (enabled_) print();  // final line: the completed count at teardown
}

void ProgressMeter::advance(long long n) {
  completed_ += n;
  const auto now = std::chrono::steady_clock::now();
  if (now - last_ < interval_) return;
  last_ = now;
  print();
}

void ProgressMeter::print() const {
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started_)
                          .count();
  const double rate = secs > 0 ? static_cast<double>(completed_) / secs : 0.0;
  const double eta =
      rate > 0 ? static_cast<double>(total_ - completed_) / rate : 0.0;
  std::fprintf(stderr, "[%s] %lld/%lld %s (%.0f/s, eta %.1fs)\n", label_,
               completed_, total_, unit_, rate, eta > 0 ? eta : 0.0);
}

}  // namespace mpcn
