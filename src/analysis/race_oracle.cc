#include "src/analysis/race_oracle.h"

#include <algorithm>
#include <sstream>

#include "src/common/errors.h"
#include "src/experiment/record.h"

namespace mpcn {

// ------------------------------------------------------- vector clocks

std::uint64_t VectorClock::get(const ThreadId& tid) const {
  const auto it = clock_.find(tid);
  return it == clock_.end() ? 0 : it->second;
}

void VectorClock::tick(const ThreadId& tid) { ++clock_[tid]; }

void VectorClock::join(const VectorClock& other) {
  for (const auto& [tid, c] : other.clock_) {
    std::uint64_t& mine = clock_[tid];
    if (c > mine) mine = c;
  }
}

bool VectorClock::dominates(const VectorClock& other) const {
  for (const auto& [tid, c] : other.clock_) {
    if (get(tid) < c) return false;
  }
  return true;
}

bool HbAnalysis::happens_before(int a, int b,
                                const std::vector<Event>& events) const {
  if (a == b) return false;
  const ThreadId& ta = events[static_cast<std::size_t>(a)].tid;
  return clocks[static_cast<std::size_t>(b)].get(ta) >=
         clocks[static_cast<std::size_t>(a)].get(ta);
}

// ----------------------------------------------------------- decoding

namespace {

struct WriteRef {
  int event = -1;  // index into the event vector
  ThreadId tid{};
  Value value;
  std::uint64_t invoke = 0;
  std::uint64_t response = 0;
};

// "write" events carry arg = [cell, value] (make_direct_programs stamps
// the writer's own cell). Returns the cell index, or -1 if the arg is not
// in that shape (foreign history; the event still ticks program order).
int decode_write_cell(const Event& e) {
  if (!e.arg.is_list() || e.arg.size() != 2 || !e.arg.at(0).is_int()) {
    return -1;
  }
  return static_cast<int>(e.arg.at(0).as_int());
}

}  // namespace

HbAnalysis compute_happens_before(const std::vector<Event>& events) {
  // The recorder's log order is the linearization order (the step token
  // serializes the recording sites), but sort stably by response stamp
  // anyway so foreign or hand-built histories analyze consistently.
  std::vector<int> order(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return events[static_cast<std::size_t>(a)].response_step <
           events[static_cast<std::size_t>(b)].response_step;
  });

  HbAnalysis hb;
  hb.clocks.resize(events.size());
  std::map<ThreadId, VectorClock> threads;
  std::map<int, std::vector<WriteRef>> cell_writes;

  for (const int idx : order) {
    const Event& e = events[static_cast<std::size_t>(idx)];
    VectorClock& self = threads[e.tid];
    self.tick(e.tid);
    if (e.op == "write") {
      const int cell = decode_write_cell(e);
      if (cell >= 0) {
        WriteRef w;
        w.event = idx;
        w.tid = e.tid;
        w.value = e.arg.at(1);
        w.invoke = e.invoke_step;
        w.response = e.response_step;
        cell_writes[cell].push_back(std::move(w));
      }
    } else if (e.op == "snapshot" && e.ret.is_list()) {
      // Reads-from: for each cell, the latest write that (a) could have
      // been the cell's current value at some point inside the
      // snapshot's [invoke, response] interval and (b) wrote the value
      // the view shows. Exact for the one-step PrimitiveSnapshot;
      // sound for the multi-step Afek construction.
      for (std::size_t c = 0; c < e.ret.size(); ++c) {
        const Value& observed = e.ret.at(c);
        if (observed.is_nil()) continue;  // initial value: no writer
        const auto cw = cell_writes.find(static_cast<int>(c));
        if (cw == cell_writes.end()) continue;
        const std::vector<WriteRef>& ws = cw->second;
        for (std::size_t p = ws.size(); p-- > 0;) {
          if (ws[p].value == observed) {
            self.join(hb.clocks[static_cast<std::size_t>(ws[p].event)]);
            hb.reads_from[idx][static_cast<int>(c)] = ws[p].event;
            break;
          }
          // This write was already current before the snapshot began;
          // anything older was overwritten and never observable here.
          if (ws[p].response <= e.invoke_step) break;
        }
      }
    }
    hb.clocks[static_cast<std::size_t>(idx)] = self;
  }
  return hb;
}

// ------------------------------------------------------- race reports

const char* to_string(RaceKind kind) {
  switch (kind) {
    case RaceKind::kTornWindow:
      return "torn_window";
    case RaceKind::kMultiWriter:
      return "multi_writer";
  }
  return "?";
}

RaceKind race_kind_from_string(const std::string& s) {
  if (s == "torn_window") return RaceKind::kTornWindow;
  if (s == "multi_writer") return RaceKind::kMultiWriter;
  throw ProtocolError("unknown RaceKind: " + s);
}

Json AccessSite::to_json() const {
  Json j = Json::object();
  Json t = Json::array();
  t.push(Json(static_cast<std::int64_t>(tid.pid)));
  t.push(Json(static_cast<std::int64_t>(tid.sub)));
  j.set("tid", std::move(t))
      .set("op", op)
      .set("event_index", event_index)
      .set("invoke_step", static_cast<std::int64_t>(invoke_step))
      .set("response_step", static_cast<std::int64_t>(response_step))
      .set("value", value_to_json(value));
  return j;
}

AccessSite AccessSite::from_json(const Json& j) {
  AccessSite s;
  const Json& t = j.at("tid");
  s.tid.pid = static_cast<int>(t.at(0).as_int());
  s.tid.sub = static_cast<int>(t.at(1).as_int());
  s.op = j.at("op").as_string();
  s.event_index = static_cast<int>(j.at("event_index").as_int());
  s.invoke_step = static_cast<std::uint64_t>(j.at("invoke_step").as_int());
  s.response_step =
      static_cast<std::uint64_t>(j.at("response_step").as_int());
  s.value = value_from_json(j.at("value"));
  return s;
}

bool AccessSite::operator==(const AccessSite& o) const {
  return tid == o.tid && op == o.op && event_index == o.event_index &&
         invoke_step == o.invoke_step && response_step == o.response_step &&
         value == o.value;
}

Json RaceReport::to_json() const {
  Json j = Json::object();
  j.set("kind", to_string(kind))
      .set("cell", cell)
      .set("first", first.to_json())
      .set("second", second.to_json());
  if (kind == RaceKind::kTornWindow) {
    j.set("blip", value_to_json(blip))
        .set("restored", value_to_json(restored))
        .set("window_begin", static_cast<std::int64_t>(window_begin))
        .set("window_end", static_cast<std::int64_t>(window_end));
  }
  j.set("schedule_digest", schedule_digest).set("why", why);
  return j;
}

RaceReport RaceReport::from_json(const Json& j) {
  RaceReport r;
  r.kind = race_kind_from_string(j.at("kind").as_string());
  r.cell = static_cast<int>(j.at("cell").as_int());
  r.first = AccessSite::from_json(j.at("first"));
  r.second = AccessSite::from_json(j.at("second"));
  if (r.kind == RaceKind::kTornWindow) {
    r.blip = value_from_json(j.at("blip"));
    r.restored = value_from_json(j.at("restored"));
    r.window_begin =
        static_cast<std::uint64_t>(j.at("window_begin").as_int());
    r.window_end = static_cast<std::uint64_t>(j.at("window_end").as_int());
  }
  r.schedule_digest = j.at("schedule_digest").as_string();
  r.why = j.at("why").as_string();
  return r;
}

bool RaceReport::operator==(const RaceReport& o) const {
  return kind == o.kind && cell == o.cell && first == o.first &&
         second == o.second && blip == o.blip && restored == o.restored &&
         window_begin == o.window_begin && window_end == o.window_end &&
         schedule_digest == o.schedule_digest && why == o.why;
}

// ----------------------------------------------------------- detector

namespace {

AccessSite site_of(const std::vector<Event>& events, int idx,
                   Value value) {
  const Event& e = events[static_cast<std::size_t>(idx)];
  AccessSite s;
  s.tid = e.tid;
  s.op = e.op;
  s.event_index = idx;
  s.invoke_step = e.invoke_step;
  s.response_step = e.response_step;
  s.value = std::move(value);
  return s;
}

}  // namespace

std::vector<RaceReport> find_races(const std::vector<Event>& events,
                                   const ScheduleTrace& grants,
                                   std::string schedule_digest) {
  if (schedule_digest.empty() && !grants.empty()) {
    schedule_digest = grants.digest();
  }
  const HbAnalysis hb = compute_happens_before(events);

  // Rebuild the per-cell write lists and per-thread event sequences the
  // detector rules walk (compute_happens_before keeps its own private).
  std::map<int, std::vector<WriteRef>> cell_writes;
  std::map<ThreadId, std::vector<int>> thread_events;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    thread_events[e.tid].push_back(static_cast<int>(i));
    if (e.op != "write") continue;
    const int cell = decode_write_cell(e);
    if (cell < 0) continue;
    WriteRef w;
    w.event = static_cast<int>(i);
    w.tid = e.tid;
    w.value = e.arg.at(1);
    w.invoke = e.invoke_step;
    w.response = e.response_step;
    cell_writes[cell].push_back(std::move(w));
  }
  // next_of[i] = the same thread's next event after i (-1 = none): the
  // "back-to-back" test of the torn-window rule.
  std::vector<int> next_of(events.size(), -1);
  for (const auto& [tid, seq] : thread_events) {
    for (std::size_t k = 0; k + 1 < seq.size(); ++k) {
      next_of[static_cast<std::size_t>(seq[k])] = seq[k + 1];
    }
  }

  std::vector<RaceReport> races;
  for (const auto& [cell, ws] : cell_writes) {
    // Torn window: ws[p] is a blip iff the same thread's very next
    // shared-memory operation is ws[p+1] restoring the pre-blip value.
    for (std::size_t p = 1; p + 1 < ws.size(); ++p) {
      const WriteRef& blip = ws[p];
      const WriteRef& repair = ws[p + 1];
      const Value& before = ws[p - 1].value;
      if (!(blip.tid == repair.tid)) continue;
      if (next_of[static_cast<std::size_t>(blip.event)] != repair.event) {
        continue;  // the writer did something else in between: published
      }
      if (!(repair.value == before) || blip.value == before) continue;

      // A snapshot by another thread that read the blip, unordered with
      // the repair, observed state the writer immediately repudiated.
      for (const auto& [snap_event, observed] : hb.reads_from) {
        const auto it = observed.find(cell);
        if (it == observed.end() || it->second != blip.event) continue;
        const Event& snap = events[static_cast<std::size_t>(snap_event)];
        if (snap.tid == blip.tid) continue;
        if (hb.happens_before(snap_event, repair.event, events)) continue;
        RaceReport r;
        r.kind = RaceKind::kTornWindow;
        r.cell = cell;
        r.first = site_of(events, blip.event, blip.value);
        r.second = site_of(events, snap_event, blip.value);
        r.blip = blip.value;
        r.restored = repair.value;
        r.window_begin = blip.response;
        r.window_end = repair.response;
        r.schedule_digest = schedule_digest;
        std::ostringstream why;
        why << "torn window on cell " << cell << ": " << blip.tid.to_string()
            << " exposed " << blip.value.to_string() << " for steps ["
            << blip.response << ", " << repair.response
            << ") before restoring " << repair.value.to_string() << "; "
            << snap.tid.to_string() << " snapshot at step "
            << snap.response_step
            << " observed the blip with no happens-before path to the "
               "repair";
        r.why = why.str();
        races.push_back(std::move(r));
      }
    }
    // Multi-writer: consecutive writes to one cell from different
    // threads must be happens-before ordered (a snapshot of the first
    // write, or any later knowledge, before the second write). The
    // single-writer discipline rules this out for top-level processes;
    // same-pid sub-threads are exactly what the vector clocks catch.
    for (std::size_t p = 0; p + 1 < ws.size(); ++p) {
      const WriteRef& a = ws[p];
      const WriteRef& b = ws[p + 1];
      if (a.tid == b.tid) continue;
      if (hb.happens_before(a.event, b.event, events)) continue;
      RaceReport r;
      r.kind = RaceKind::kMultiWriter;
      r.cell = cell;
      r.first = site_of(events, a.event, a.value);
      r.second = site_of(events, b.event, b.value);
      r.schedule_digest = schedule_digest;
      std::ostringstream why;
      why << "unsynchronized writers on cell " << cell << ": "
          << a.tid.to_string() << " write at step " << a.response << " and "
          << b.tid.to_string() << " write at step " << b.response
          << " are happens-before unordered";
      r.why = why.str();
      races.push_back(std::move(r));
    }
  }
  // Deterministic report order: history order of the second (observing /
  // later) access, ties by the first.
  std::stable_sort(races.begin(), races.end(),
                   [](const RaceReport& x, const RaceReport& y) {
                     if (x.second.event_index != y.second.event_index) {
                       return x.second.event_index < y.second.event_index;
                     }
                     return x.first.event_index < y.first.event_index;
                   });
  return races;
}

}  // namespace mpcn
