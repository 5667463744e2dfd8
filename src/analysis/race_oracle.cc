#include "src/analysis/race_oracle.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/common/errors.h"
#include "src/experiment/record.h"

namespace mpcn {

// ------------------------------------------------------ happens-before

bool HbAnalysis::happens_before(int a, int b) const {
  if (a == b) return false;
  const auto ua = static_cast<std::size_t>(a);
  const auto ub = static_cast<std::size_t>(b);
  const auto w = static_cast<std::size_t>(threads);
  const auto t = static_cast<std::size_t>(thread[ua]);
  return clocks[ub * w + t] >= clocks[ua * w + t];
}

int HbAnalysis::reads_from(int snapshot, int cell) const {
  const std::size_t i = static_cast<std::size_t>(snapshot);
  const int begin = view_begin[i];
  if (cell < 0 || cell >= view_begin[i + 1] - begin) return -1;
  return observed[static_cast<std::size_t>(begin + cell)];
}

namespace {

// One entry of a write's reader chain: a snapshot that observed it.
struct Reader {
  int snapshot = -1;
  int next = -1;  // next entry of the same chain, -1 = end
};

// Everything the pass builds: the happens-before order, plus the links
// the race rules walk.
struct Pass {
  HbAnalysis hb;
  std::vector<int> cell;  // the cell write i names; < 0 for none
  // In history order: the previous event of the same thread, and for a
  // write the previous write to its cell (-1 = none).
  std::vector<int> prev_in_thread;
  std::vector<int> prev_on_cell;
  std::vector<int> first_reader;  // per write: head of its reader chain
  std::vector<Reader> readers;
};

Pass run_pass(const std::vector<Event>& events) {
  const std::size_t n = events.size();
  Pass p;
  HbAnalysis& hb = p.hb;
  hb.thread.resize(n);
  hb.view_begin.resize(n + 1);
  p.cell.assign(n, -1);

  // Classify in history order: number threads by first event, take the
  // cell each write names, lay out the snapshot view slots, and check
  // that the response stamps are in order. Threads are few, and each
  // event copies a clock row as wide as their count, so a linear scan
  // numbers them at no extra order of cost.
  std::vector<ThreadId> tids;
  std::size_t width = 0;  // widest snapshot view
  bool in_order = true;
  int slots = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = events[i];
    if (i > 0 && e.response_step < events[i - 1].response_step) {
      in_order = false;
    }
    std::size_t t = 0;
    while (t < tids.size() && !(tids[t] == e.tid)) ++t;
    if (t == tids.size()) tids.push_back(e.tid);
    hb.thread[i] = static_cast<int>(t);
    hb.view_begin[i] = slots;
    // A write names its cell (make_direct_programs stamps the writer's
    // own); one with a negative cell, from a foreign history, names none
    // and only ticks program order, as does a snapshot with an empty view.
    if (e.op == EventOp::kWrite) {
      p.cell[i] = e.cell;
    } else {
      width = std::max(width, e.view.size());
      slots += static_cast<int>(e.view.size());
    }
  }
  hb.view_begin[n] = slots;

  // The recorder's log order is the linearization order (the step token
  // serializes the recording sites); a foreign log with out-of-order
  // response stamps is visited in stable response order instead.
  std::vector<int> order;
  if (!in_order) {
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return events[static_cast<std::size_t>(a)].response_step <
             events[static_cast<std::size_t>(b)].response_step;
    });
  }

  const std::size_t w = tids.size();
  hb.threads = static_cast<int>(w);
  hb.clocks.assign(n * w, 0);
  hb.observed.assign(static_cast<std::size_t>(slots), -1);
  p.prev_in_thread.assign(n, -1);
  p.prev_on_cell.assign(n, -1);
  p.first_reader.assign(n, -1);
  p.readers.reserve(static_cast<std::size_t>(slots));
  std::vector<int> last_in_thread(w, -1);
  // The last write to each cell, in a table indexed by cell: a recorded
  // write names its writer's own cell, a pid below the view width, so
  // the numbering is dense. A cell past every view occurs only in a
  // foreign history; no snapshot observes it, so only the multi-writer
  // rule can fire on its writes.
  std::vector<int> last_on_cell(width, -1);
  std::map<int, int> last_on_unseen_cell;
  // Link event i behind the last event of its thread and, for a write,
  // the last write to its cell, in visiting order.
  const auto link = [&](std::size_t i) {
    int& last = last_in_thread[static_cast<std::size_t>(hb.thread[i])];
    p.prev_in_thread[i] = last;
    last = static_cast<int>(i);
    const int cell = p.cell[i];
    if (cell < 0) return;
    int& last_write = static_cast<std::size_t>(cell) < width
                          ? last_on_cell[static_cast<std::size_t>(cell)]
                          : last_on_unseen_cell.try_emplace(cell, -1)
                                .first->second;
    p.prev_on_cell[i] = last_write;
    last_write = static_cast<int>(i);
  };

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = in_order ? k : static_cast<std::size_t>(order[k]);
    const Event& e = events[i];
    link(i);
    std::uint32_t* row = &hb.clocks[i * w];
    if (p.prev_in_thread[i] >= 0) {
      const std::uint32_t* prev =
          &hb.clocks[static_cast<std::size_t>(p.prev_in_thread[i]) * w];
      std::copy(prev, prev + w, row);
    }
    ++row[hb.thread[i]];
    const int begin = hb.view_begin[i];
    if (begin == hb.view_begin[i + 1]) continue;
    // Reads-from: for each cell, the latest write that (a) could have
    // been the cell's current value at some point inside the snapshot's
    // [invoke, response] interval and (b) wrote the value the view
    // shows. Exact for the one-step PrimitiveSnapshot; sound for the
    // multi-step Afek construction.
    const std::vector<Value>& view = e.view;
    for (std::size_t c = 0; c < view.size(); ++c) {
      if (view[c].is_nil()) continue;  // initial value: no writer
      for (int v = last_on_cell[c]; v >= 0;
           v = p.prev_on_cell[static_cast<std::size_t>(v)]) {
        const Event& write = events[static_cast<std::size_t>(v)];
        if (write.value == view[c]) {
          const std::uint32_t* joined =
              &hb.clocks[static_cast<std::size_t>(v) * w];
          for (std::size_t t = 0; t < w; ++t) {
            row[t] = std::max(row[t], joined[t]);
          }
          hb.observed[static_cast<std::size_t>(begin) + c] = v;
          int& head = p.first_reader[static_cast<std::size_t>(v)];
          p.readers.push_back(Reader{static_cast<int>(i), head});
          head = static_cast<int>(p.readers.size()) - 1;
          break;
        }
        // This write was already current before the snapshot began;
        // anything older was overwritten and never observable here.
        if (write.response_step <= e.invoke_step) break;
      }
    }
  }

  // The race rules read history order: relink a log visited out of it.
  if (!in_order) {
    std::fill(last_in_thread.begin(), last_in_thread.end(), -1);
    std::fill(last_on_cell.begin(), last_on_cell.end(), -1);
    last_on_unseen_cell.clear();
    for (std::size_t i = 0; i < n; ++i) link(i);
  }
  return p;
}

}  // namespace

HbAnalysis compute_happens_before(const std::vector<Event>& events) {
  return run_pass(events).hb;
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
  s.op = to_string(e.op);
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
  const Pass p = run_pass(events);
  const HbAnalysis& hb = p.hb;
  const auto value_of = [&events](int write) -> const Value& {
    return events[static_cast<std::size_t>(write)].value;
  };

  std::vector<RaceReport> races;
  // Each write `b` closes a consecutive pair (a, b) on its cell and, with
  // the write before `a`, a triple (before, a, b).
  for (std::size_t i = 0; i < events.size(); ++i) {
    const int b = static_cast<int>(i);
    const int a = p.prev_on_cell[i];
    if (a < 0) continue;
    const int cell = p.cell[i];
    // Multi-writer: consecutive writes to one cell from different
    // threads must be happens-before ordered (a snapshot of the first
    // write, or any later knowledge, before the second write). The
    // single-writer discipline rules this out for top-level processes;
    // same-pid sub-threads are exactly what the vector clocks catch.
    if (hb.thread[static_cast<std::size_t>(a)] != hb.thread[i] &&
        !hb.happens_before(a, b)) {
      const Event& ea = events[static_cast<std::size_t>(a)];
      const Event& eb = events[i];
      RaceReport r;
      r.kind = RaceKind::kMultiWriter;
      r.cell = cell;
      r.first = site_of(events, a, value_of(a));
      r.second = site_of(events, b, value_of(b));
      std::ostringstream why;
      why << "unsynchronized writers on cell " << cell << ": "
          << ea.tid.to_string() << " write at step " << ea.response_step
          << " and " << eb.tid.to_string() << " write at step "
          << eb.response_step << " are happens-before unordered";
      r.why = why.str();
      races.push_back(std::move(r));
    }
    // Torn window: `a` is a blip iff the same thread's very next
    // shared-memory operation is `b` restoring the pre-blip value.
    const int before = p.prev_on_cell[static_cast<std::size_t>(a)];
    if (before < 0 || p.prev_in_thread[i] != a) continue;
    const Value& blip = value_of(a);
    const Value& restored = value_of(b);
    if (!(restored == value_of(before)) || blip == value_of(before)) {
      continue;
    }
    // A snapshot by another thread that read the blip, unordered with
    // the repair, observed state the writer immediately repudiated.
    for (int k = p.first_reader[static_cast<std::size_t>(a)]; k >= 0;
         k = p.readers[static_cast<std::size_t>(k)].next) {
      const int s = p.readers[static_cast<std::size_t>(k)].snapshot;
      if (hb.thread[static_cast<std::size_t>(s)] == hb.thread[i]) continue;
      if (hb.happens_before(s, b)) continue;
      const Event& blip_write = events[static_cast<std::size_t>(a)];
      const Event& snap = events[static_cast<std::size_t>(s)];
      RaceReport r;
      r.kind = RaceKind::kTornWindow;
      r.cell = cell;
      r.first = site_of(events, a, blip);
      r.second = site_of(events, s, blip);
      r.blip = blip;
      r.restored = restored;
      r.window_begin = blip_write.response_step;
      r.window_end = events[i].response_step;
      std::ostringstream why;
      why << "torn window on cell " << cell << ": "
          << blip_write.tid.to_string() << " exposed " << blip.to_string()
          << " for steps [" << r.window_begin << ", " << r.window_end
          << ") before restoring " << restored.to_string() << "; "
          << snap.tid.to_string() << " snapshot at step "
          << snap.response_step
          << " observed the blip with no happens-before path to the "
             "repair";
      r.why = why.str();
      races.push_back(std::move(r));
    }
  }
  if (races.empty()) return races;
  if (schedule_digest.empty() && !grants.empty()) {
    schedule_digest = grants.digest();
  }
  for (RaceReport& r : races) r.schedule_digest = schedule_digest;
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
