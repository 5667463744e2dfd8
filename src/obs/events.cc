#include "src/obs/events.h"

#include <fcntl.h>
#include <unistd.h>

#include "src/obs/spans.h"

namespace mpcn {

namespace {

int g_events_fd = -1;  // the open log; -1 when none is

}  // namespace

bool events_enabled() { return g_events_fd >= 0; }

bool open_event_log(const std::string& path) {
  close_event_log();
  g_events_fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                       0644);
  return g_events_fd >= 0;
}

void close_event_log() {
  if (g_events_fd >= 0) {
    ::close(g_events_fd);
    g_events_fd = -1;
  }
}

void log_event(const char* type, Json fields) {
  if (!events_enabled()) return;
  Json ev = Json::object();
  ev.set("ts_us", static_cast<std::int64_t>(trace_now_us()));
  ev.set("type", type);
  if (fields.is_object()) {
    for (const auto& [key, value] : fields.members()) {
      ev.set(key, value);
    }
  }
  std::string line = ev.dump();
  line.push_back('\n');
  // One write(2) per line: a crash mid-run loses at most the final
  // partial line.
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    ssize_t n = ::write(g_events_fd, p, left);
    if (n <= 0) return;  // best effort — never fail the run over the log
    p += static_cast<std::size_t>(n);
    left -= static_cast<std::size_t>(n);
  }
}

}  // namespace mpcn
