#include "src/obs/spans.h"

#include <algorithm>
#include <chrono>
#include <vector>

namespace mpcn {

namespace {

struct SpanEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::int64_t cell_index = -1;  // < 0: no args object on export
};

// The process's span ring.
struct SpanRing {
  static constexpr std::size_t kCapacity = 8192;
  std::vector<SpanEvent> events;  // ring storage, grows to kCapacity
  std::size_t next = 0;           // ring write cursor
  std::uint64_t dropped = 0;      // events overwritten after wrap

  void push(const SpanEvent& ev) {
    if (events.size() < kCapacity) {
      events.push_back(ev);
      next = events.size() % kCapacity;
      return;
    }
    events[next] = ev;
    next = (next + 1) % kCapacity;
    ++dropped;
  }
};

SpanRing& span_ring() {
  static SpanRing* ring = new SpanRing();  // never dtor'd
  return *ring;
}

bool g_tracing = false;

}  // namespace

bool tracing_enabled() { return g_tracing; }

void set_tracing_enabled(bool on) { g_tracing = on; }

std::uint64_t trace_now_us() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

void record_span(const char* name, const char* category,
                 std::uint64_t start_us, std::uint64_t dur_us,
                 std::int64_t cell_index) {
  SpanEvent ev;
  ev.name = name;
  ev.category = category;
  ev.start_us = start_us;
  ev.dur_us = dur_us;
  ev.cell_index = cell_index;
  span_ring().push(ev);
}

Json dump_trace_json() {
  const SpanRing& ring = span_ring();
  std::vector<SpanEvent> rows = ring.events;
  std::stable_sort(rows.begin(), rows.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.start_us < b.start_us;
                   });
  Json events = Json::array();
  for (const SpanEvent& ev : rows) {
    Json e = Json::object();
    e.set("name", ev.name)
        .set("cat", ev.category)
        .set("ph", "X")
        .set("ts", static_cast<std::int64_t>(ev.start_us))
        .set("dur", static_cast<std::int64_t>(ev.dur_us))
        .set("pid", 1)
        .set("tid", 1);
    if (ev.cell_index >= 0) {
      Json args = Json::object();
      args.set("cell_index", ev.cell_index);
      e.set("args", std::move(args));
    }
    events.push(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events))
      .set("displayTimeUnit", "ms")
      .set("droppedEvents", static_cast<std::int64_t>(ring.dropped));
  return doc;
}

Json merge_trace_docs(const std::vector<ProcessTrace>& procs) {
  struct Row {
    Json ev;
    std::int64_t ts = 0;
    int pid = 0;
    std::int64_t tid = 0;
  };
  std::vector<Row> rows;
  std::int64_t dropped = 0;
  Json events = Json::array();
  // Metadata block first: one process_name label per contributing
  // process, in input order (coordinator, then workers by slot).
  for (const ProcessTrace& p : procs) {
    const Json* evs = p.doc.find("traceEvents");
    if (evs == nullptr || !evs->is_array()) continue;
    Json args = Json::object();
    args.set("name", p.name);
    Json m = Json::object();
    m.set("name", "process_name")
        .set("ph", "M")
        .set("pid", p.pid)
        .set("tid", std::int64_t{0})
        .set("args", std::move(args));
    events.push(std::move(m));
    if (const Json* d = p.doc.find("droppedEvents")) dropped += d->as_int();
    for (const Json& src : evs->items()) {
      Row r;
      r.ev = src;  // copy, then re-stamp in place (key order preserved)
      r.ts = src.at("ts").as_int();
      r.pid = p.pid;
      r.tid = src.at("tid").as_int();
      r.ev.set("pid", p.pid);
      rows.push_back(std::move(r));
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.pid != b.pid) return a.pid < b.pid;
    return a.tid < b.tid;
  });
  for (Row& r : rows) events.push(std::move(r.ev));
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events))
      .set("displayTimeUnit", "ms")
      .set("droppedEvents", dropped);
  return doc;
}

void reset_trace() {
  SpanRing& ring = span_ring();
  ring.events.clear();
  ring.next = 0;
  ring.dropped = 0;
}

}  // namespace mpcn
