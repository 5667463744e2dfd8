// Tests: src/analysis — the happens-before race oracle. Unit-level
// coverage of the vector-clock engine over synthesized histories, a
// differential check against a map-based reference oracle on seeded
// random histories and on the Afek histories of a PCT search, then the
// full pipeline: explore(check_races) flags the racy_register torn
// pair write under DFS bound 1 and PCT, stays silent on every clean
// registry scenario across a seeded budget, round-trips RaceReports
// through JSON and the shard wire, and keeps sharded searches
// byte-identical to in-process ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "src/analysis/race_oracle.h"
#include "src/common/rng.h"
#include "src/dist/wire.h"
#include "src/experiment/diff.h"
#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"
#include "src/history/history.h"

namespace mpcn {
namespace {

std::vector<Value> index_inputs(const ModelSpec& m) {
  std::vector<Value> in;
  for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
  return in;
}

ExperimentCell named_cell(const std::string& scenario, const ModelSpec& m,
                          std::uint64_t seed) {
  Experiment e = Experiment::named(scenario, m);
  e.direct().seed(seed).inputs_fn(index_inputs);
  return e.cells().front();
}

Event write_ev(ThreadId tid, int cell, Value v, std::uint64_t invoke,
               std::uint64_t response) {
  return Event{tid, EventOp::kWrite, cell, std::move(v), {}, invoke,
               response};
}

Event snap_ev(ThreadId tid, std::vector<Value> view, std::uint64_t invoke,
              std::uint64_t response) {
  return Event{tid, EventOp::kSnapshot, -1, Value(), std::move(view), invoke,
               response};
}

// --------------------------------------------------- vector-clock engine

TEST(HappensBefore, ProgramOrderAndReadsFromEdges) {
  const ThreadId q0{0, 0}, q1{1, 0};
  // q0 writes, q1 snapshots the write, q1 writes: the snapshot's
  // reads-from edge orders q0's write before q1's.
  const std::vector<Event> events = {
      write_ev(q0, 0, Value(1), 1, 2),
      snap_ev(q1, {Value(1)}, 3, 4),
      write_ev(q1, 0, Value(2), 5, 6),
  };
  const HbAnalysis hb = compute_happens_before(events);
  // Program order: q1's snapshot precedes q1's write.
  EXPECT_TRUE(hb.happens_before(1, 2));
  EXPECT_FALSE(hb.happens_before(2, 1));
  // Reads-from: write -> observing snapshot, and transitively to the
  // snapshotting thread's later write.
  EXPECT_EQ(hb.reads_from(1, 0), 0);
  EXPECT_EQ(hb.reads_from(1, 1), -1);  // outside the view
  EXPECT_EQ(hb.reads_from(0, 0), -1);  // a write observes nothing
  EXPECT_TRUE(hb.happens_before(0, 1));
  EXPECT_TRUE(hb.happens_before(0, 2));
  // No edge back from the snapshot to the write it read.
  EXPECT_FALSE(hb.happens_before(1, 0));
}

TEST(RaceOracle, UnorderedMultiWriterFlagged) {
  const ThreadId q0{0, 0}, q1{1, 0};
  // Two writers hit cell 0 with nothing ordering them.
  const std::vector<Event> events = {
      write_ev(q0, 0, Value(1), 1, 2),
      write_ev(q1, 0, Value(2), 3, 4),
  };
  const auto races = find_races(events, ScheduleTrace{});
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].kind, RaceKind::kMultiWriter);
  EXPECT_EQ(races[0].cell, 0);
  EXPECT_EQ(races[0].first.tid, q0);
  EXPECT_EQ(races[0].second.tid, q1);
  EXPECT_NE(races[0].why.find("unsynchronized writers"), std::string::npos);
}

TEST(RaceOracle, MultiWriterOrderedThroughSnapshotIsClean) {
  const ThreadId q0{0, 0}, q1{1, 0};
  // Same two writes, but q1 snapshotted q0's write first: the reads-from
  // edge plus q1's program order gives write -> write happens-before.
  const std::vector<Event> events = {
      write_ev(q0, 0, Value(1), 1, 2),
      snap_ev(q1, {Value(1)}, 3, 4),
      write_ev(q1, 0, Value(2), 5, 6),
  };
  EXPECT_TRUE(find_races(events, ScheduleTrace{}).empty());
}

TEST(RaceOracle, SamePidSubThreadsAreSeparateWriters) {
  // q0 and its child q0.0 share a pid, so the single-writer discipline
  // does not order them: unordered writes to one cell are a race.
  const ThreadId q0{0, 0}, q00{0, 1};
  const std::vector<Event> unordered = {
      write_ev(q0, 0, Value(1), 1, 2),
      write_ev(q00, 0, Value(2), 3, 4),
  };
  const auto races = find_races(unordered, ScheduleTrace{});
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].kind, RaceKind::kMultiWriter);
  EXPECT_EQ(races[0].first.tid, q0);
  EXPECT_EQ(races[0].second.tid, q00);
  EXPECT_NE(races[0].why.find("q0 write at step 2 and q0.0 write at step 4"),
            std::string::npos)
      << races[0].why;

  // A q0.0 snapshot of q0's write in between orders the two writes.
  const std::vector<Event> ordered = {
      write_ev(q0, 0, Value(1), 1, 2),
      snap_ev(q00, {Value(1)}, 3, 4),
      write_ev(q00, 0, Value(2), 5, 6),
  };
  EXPECT_TRUE(find_races(ordered, ScheduleTrace{}).empty());
}

TEST(RaceOracle, TornWindowObservedBlipFlagged) {
  const ThreadId q0{0, 0}, q1{1, 0};
  // q0 publishes 0, blips it to 7, immediately restores 0; q1's snapshot
  // lands inside the window and observes the 7.
  const std::vector<Event> events = {
      write_ev(q0, 0, Value(0), 1, 2),
      write_ev(q0, 0, Value(7), 3, 4),
      snap_ev(q1, {Value(7)}, 3, 5),
      write_ev(q0, 0, Value(0), 5, 6),
  };
  const auto races = find_races(events, ScheduleTrace{});
  ASSERT_EQ(races.size(), 1u);
  const RaceReport& r = races[0];
  EXPECT_EQ(r.kind, RaceKind::kTornWindow);
  EXPECT_EQ(r.cell, 0);
  EXPECT_EQ(r.blip, Value(7));
  EXPECT_EQ(r.restored, Value(0));
  EXPECT_EQ(r.window_begin, 4u);
  EXPECT_EQ(r.window_end, 6u);
  EXPECT_EQ(r.first.op, "write");
  EXPECT_EQ(r.second.op, "snapshot");
  EXPECT_EQ(r.second.tid, q1);
}

TEST(RaceOracle, TornWindowUnobservedIsClean) {
  const ThreadId q0{0, 0}, q1{1, 0};
  // Same blip, but q1's snapshot sees the restored value: no observer of
  // the repudiated state, no race.
  const std::vector<Event> events = {
      write_ev(q0, 0, Value(0), 1, 2),
      write_ev(q0, 0, Value(7), 3, 4),
      write_ev(q0, 0, Value(0), 5, 6),
      snap_ev(q1, {Value(0)}, 7, 8),
  };
  EXPECT_TRUE(find_races(events, ScheduleTrace{}).empty());
}

TEST(RaceOracle, ReportJsonRoundTrip) {
  const ThreadId q0{0, 0}, q1{1, 0};
  const std::vector<Event> events = {
      write_ev(q0, 0, Value(0), 1, 2),
      write_ev(q0, 0, Value(7), 3, 4),
      snap_ev(q1, {Value(7)}, 3, 5),
      write_ev(q0, 0, Value(0), 5, 6),
      write_ev(q1, 1, Value(3), 7, 8),
      write_ev(q0, 1, Value(4), 9, 10),
  };
  const auto races = find_races(events, ScheduleTrace{}, "feedc0de");
  ASSERT_EQ(races.size(), 2u);  // one torn window + one multi-writer
  for (const RaceReport& r : races) {
    EXPECT_EQ(r.schedule_digest, "feedc0de");
    const RaceReport back =
        RaceReport::from_json(Json::parse(r.to_json().dump()));
    EXPECT_EQ(back, r);
  }
  EXPECT_NE(races[0], races[1]);
}

// ------------------------------------------------ differential reference

// The oracle's first implementation, kept as the reference the flat pass
// must agree with: map vector clocks copied at every event, reads-from as
// a map of maps, and detector rules that rebuild their own write lists.
namespace reference {

class VectorClock {
 public:
  std::uint64_t get(const ThreadId& tid) const {
    const auto it = clock_.find(tid);
    return it == clock_.end() ? 0 : it->second;
  }
  void tick(const ThreadId& tid) { ++clock_[tid]; }
  void join(const VectorClock& other) {
    for (const auto& [tid, c] : other.clock_) {
      std::uint64_t& mine = clock_[tid];
      if (c > mine) mine = c;
    }
  }

 private:
  std::map<ThreadId, std::uint64_t> clock_;
};

struct HbAnalysis {
  std::vector<VectorClock> clocks;
  std::map<int, std::map<int, int>> reads_from;

  bool happens_before(int a, int b, const std::vector<Event>& events) const {
    if (a == b) return false;
    const ThreadId& ta = events[static_cast<std::size_t>(a)].tid;
    return clocks[static_cast<std::size_t>(b)].get(ta) >=
           clocks[static_cast<std::size_t>(a)].get(ta);
  }
};

struct WriteRef {
  int event = -1;
  ThreadId tid{};
  Value value;
  std::uint64_t invoke = 0;
  std::uint64_t response = 0;
};

WriteRef write_ref(const Event& e, int idx) {
  WriteRef w;
  w.event = idx;
  w.tid = e.tid;
  w.value = e.value;
  w.invoke = e.invoke_step;
  w.response = e.response_step;
  return w;
}

HbAnalysis compute_happens_before(const std::vector<Event>& events) {
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
    if (e.op == EventOp::kWrite) {
      if (e.cell >= 0) cell_writes[e.cell].push_back(write_ref(e, idx));
    } else if (e.op == EventOp::kSnapshot) {
      for (std::size_t c = 0; c < e.view.size(); ++c) {
        const Value& observed = e.view.at(c);
        if (observed.is_nil()) continue;
        const auto cw = cell_writes.find(static_cast<int>(c));
        if (cw == cell_writes.end()) continue;
        const std::vector<WriteRef>& ws = cw->second;
        for (std::size_t p = ws.size(); p-- > 0;) {
          if (ws[p].value == observed) {
            self.join(hb.clocks[static_cast<std::size_t>(ws[p].event)]);
            hb.reads_from[idx][static_cast<int>(c)] = ws[p].event;
            break;
          }
          if (ws[p].response <= e.invoke_step) break;
        }
      }
    }
    hb.clocks[static_cast<std::size_t>(idx)] = self;
  }
  return hb;
}

AccessSite site_of(const std::vector<Event>& events, int idx, Value value) {
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

std::vector<RaceReport> find_races(const std::vector<Event>& events,
                                   const ScheduleTrace& grants,
                                   std::string schedule_digest = "") {
  if (schedule_digest.empty() && !grants.empty()) {
    schedule_digest = grants.digest();
  }
  const HbAnalysis hb = reference::compute_happens_before(events);
  std::map<int, std::vector<WriteRef>> cell_writes;
  std::map<ThreadId, std::vector<int>> thread_events;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    thread_events[e.tid].push_back(static_cast<int>(i));
    if (e.op != EventOp::kWrite || e.cell < 0) continue;
    cell_writes[e.cell].push_back(write_ref(e, static_cast<int>(i)));
  }
  std::vector<int> next_of(events.size(), -1);
  for (const auto& [tid, seq] : thread_events) {
    for (std::size_t k = 0; k + 1 < seq.size(); ++k) {
      next_of[static_cast<std::size_t>(seq[k])] = seq[k + 1];
    }
  }

  std::vector<RaceReport> races;
  for (const auto& [cell, ws] : cell_writes) {
    for (std::size_t p = 1; p + 1 < ws.size(); ++p) {
      const WriteRef& blip = ws[p];
      const WriteRef& repair = ws[p + 1];
      const Value& before = ws[p - 1].value;
      if (!(blip.tid == repair.tid)) continue;
      if (next_of[static_cast<std::size_t>(blip.event)] != repair.event) {
        continue;
      }
      if (!(repair.value == before) || blip.value == before) continue;
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
  std::stable_sort(races.begin(), races.end(),
                   [](const RaceReport& x, const RaceReport& y) {
                     if (x.second.event_index != y.second.event_index) {
                       return x.second.event_index < y.second.event_index;
                     }
                     return x.first.event_index < y.first.event_index;
                   });
  return races;
}

}  // namespace reference

std::string dump(const std::vector<RaceReport>& races) {
  std::string out;
  for (const RaceReport& r : races) out += r.to_json().dump() + "\n";
  return out;
}

// The flat pass against the reference on one history: the same reports
// byte for byte, the same happens-before relation and the same
// reads-from edges.
void expect_matches_reference(const std::vector<Event>& events,
                              const ScheduleTrace& grants,
                              const std::string& label) {
  ASSERT_EQ(dump(find_races(events, grants)),
            dump(reference::find_races(events, grants)))
      << label;
  const HbAnalysis hb = compute_happens_before(events);
  const reference::HbAnalysis ref = reference::compute_happens_before(events);
  const int n = static_cast<int>(events.size());
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      ASSERT_EQ(hb.happens_before(a, b), ref.happens_before(a, b, events))
          << label << ": events " << a << " -> " << b;
    }
    const Event& e = events[static_cast<std::size_t>(a)];
    const int width = static_cast<int>(e.view.size()) + 1;
    for (int c = 0; c < width; ++c) {
      const auto snap = ref.reads_from.find(a);
      int expected = -1;
      if (snap != ref.reads_from.end()) {
        const auto it = snap->second.find(c);
        if (it != snap->second.end()) expected = it->second;
      }
      ASSERT_EQ(hb.reads_from(a, c), expected)
          << label << ": snapshot " << a << " cell " << c;
    }
  }
}

// A seeded random history: 2–4 threads (sometimes q0's sub-threads),
// 1–3 cells and the value alphabet {0, 1, 2}, so blips, ABA repairs and
// unordered writers are common. It mixes in nil and unmatched
// observations, writes that name no cell, empty views, and in about one
// history in ten response stamps out of log order.
std::vector<Event> random_history(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ThreadId> tids;
  const int threads = 2 + static_cast<int>(rng.index(3));
  for (int t = 0; t < threads; ++t) tids.push_back(ThreadId{t, 0});
  if (rng.chance(0.4)) tids[1] = ThreadId{0, 1};
  if (threads > 2 && rng.chance(0.3)) tids[2] = ThreadId{0, 2};
  const int cells = 1 + static_cast<int>(rng.index(3));
  std::vector<Value> mem(static_cast<std::size_t>(cells), Value::nil());

  std::vector<Event> h;
  std::uint64_t clock = 1;
  // Stamp `e` on the history's clock and append it.
  const auto emit = [&](Event e) {
    e.response_step = clock;
    e.invoke_step = clock - std::min<std::uint64_t>(clock, rng.index(4));
    clock += rng.index(3);
    h.push_back(std::move(e));
  };
  const auto write = [&](const ThreadId& tid, int cell, int v) {
    mem[static_cast<std::size_t>(cell)] = Value(v);
    emit(write_ev(tid, cell, Value(v), 0, 0));
  };
  const auto snapshot = [&](const ThreadId& tid) {
    std::vector<Value> view;
    const int width = cells + (rng.chance(0.1) ? 1 : 0);
    for (int c = 0; c < width; ++c) {
      const int pick = static_cast<int>(rng.index(20));
      if (c >= cells || pick == 0) {
        view.push_back(Value::nil());
      } else if (pick == 1) {
        view.push_back(Value(9));  // no write ever wrote 9
      } else if (pick <= 3) {
        // Possibly stale.
        view.push_back(Value(static_cast<int>(rng.index(3))));
      } else {
        view.push_back(mem[static_cast<std::size_t>(c)]);
      }
    }
    emit(snap_ev(tid, std::move(view), 0, 0));
  };

  const int len = 1 + static_cast<int>(rng.index(28));
  while (static_cast<int>(h.size()) < len) {
    const std::size_t t = rng.index(tids.size());
    const ThreadId& tid = tids[t];
    const int cell =
        rng.chance(0.7)
            ? static_cast<int>(t) % cells
            : static_cast<int>(rng.index(static_cast<std::size_t>(cells)));
    const int pick = static_cast<int>(rng.index(100));
    if (pick < 30) {
      write(tid, cell, static_cast<int>(rng.index(3)));
    } else if (pick < 45) {
      // A blip and its repair, often with another thread's snapshot in
      // the window.
      const Value old = mem[static_cast<std::size_t>(cell)];
      write(tid, cell, static_cast<int>(rng.index(3)));
      if (rng.chance(0.7)) snapshot(tids[rng.index(tids.size())]);
      if (old.is_int()) write(tid, cell, static_cast<int>(old.as_int()));
    } else if (pick < 85) {
      snapshot(tid);
    } else if (pick < 94) {
      // A write that names no cell: it only ticks program order.
      emit(write_ev(tid, -1, Value(1), 0, 0));
    } else if (pick < 96) {
      // A cell no view reaches: only the multi-writer rule sees it.
      emit(write_ev(tid, 1000, Value(static_cast<int>(rng.index(3))), 0, 0));
    } else {
      // An empty view: it ticks program order and observes nothing.
      emit(snap_ev(tid, {}, 0, 0));
    }
  }
  if (rng.chance(0.12)) {  // a short or unlucky draw stays in order
    for (Event& e : h) {
      if (!rng.chance(0.3)) continue;
      e.response_step = rng.index(clock + 1);
      e.invoke_step = std::min(e.invoke_step, e.response_step);
    }
  }
  return h;
}

TEST(RaceOracleDifferential, SeededRandomHistoriesMatchTheReference) {
  const ScheduleTrace grants{{ThreadId{0, 0}, ThreadId{1, 0}}, {}};
  int torn = 0, multi = 0, out_of_order = 0, out_of_order_races = 0;
  for (std::uint64_t seed = 1; seed <= 10000; ++seed) {
    const std::vector<Event> h = random_history(seed);
    expect_matches_reference(h, grants, "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
    const auto races = find_races(h, grants);
    for (const RaceReport& r : races) {
      (r.kind == RaceKind::kTornWindow ? torn : multi) += 1;
    }
    const bool sorted = std::is_sorted(
        h.begin(), h.end(), [](const Event& a, const Event& b) {
          return a.response_step < b.response_step;
        });
    if (!sorted) {
      ++out_of_order;
      if (!races.empty()) ++out_of_order_races;
    }
  }
  // The comparison is only worth something if both rules fire, also on
  // logs visited out of order.
  EXPECT_GT(torn, 1000);
  EXPECT_GT(multi, 4000);
  EXPECT_GT(out_of_order, 800);
  EXPECT_GT(out_of_order_races, 200);
}

TEST(RaceOracleDifferential, AfekPctSearchHistoriesMatchTheReference) {
  // The benchmark's cell: every history of a 200-schedule PCT search of
  // snapshot_churn over the Afek snapshot.
  ExperimentCell cell = named_cell("snapshot_churn", ModelSpec{3, 0, 1}, 1);
  cell.mem = MemKind::kAfek;
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 7;
  opts.budget = 200;
  opts.check_races = true;
  const ExploreResult result = explore(cell, opts);
  ASSERT_FALSE(result.race_found());
  ASSERT_EQ(result.schedules, opts.budget);
  for (int i = 0; i < opts.budget; ++i) {
    ExperimentCell c = cell;
    c.cell_index = i;
    c.schedule.kind = SchedulePolicyKind::kPct;
    c.schedule.seed = opts.seed + static_cast<std::uint64_t>(i);
    c.schedule.pct_depth = opts.pct_depth;
    c.schedule.pct_horizon = result.pct_horizon;
    c.record_schedule = true;
    auto history = std::make_shared<HistoryRecorder>();
    c.history = history;
    const RunRecord rec = run_cell(c);
    ASSERT_TRUE(rec.schedule_trace) << "schedule " << i;
    ASSERT_GT(history->size(), 0u);
    expect_matches_reference(history->events(), *rec.schedule_trace,
                             "schedule " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

// ------------------------------------------------- explorer integration

TEST(RaceOracle, DfsBound1FlagsRacyRegister) {
  // The pinned exhibit: systematic DFS at preemption bound 1 must trip
  // the oracle on racy_register's torn pair write.
  const ExperimentCell cell =
      named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kBoundedDfs;
  opts.dfs_preemption_bound = 1;
  opts.budget = 200;
  opts.check_races = true;
  const ExploreResult result = explore(cell, opts);

  ASSERT_TRUE(result.race_found());
  EXPECT_GE(result.race_reports(), 1);
  const ExploreViolation& v = result.violations.front();
  EXPECT_TRUE(v.race);
  EXPECT_TRUE(v.record.races_checked);
  ASSERT_FALSE(v.record.race_reports.empty());
  const RaceReport& r = v.record.race_reports.front();
  EXPECT_EQ(r.kind, RaceKind::kTornWindow);
  EXPECT_FALSE(r.schedule_digest.empty());
  EXPECT_NE(v.why.find("race:"), std::string::npos);
  // The counterexample shrank and still races (require_race shrinking).
  EXPECT_TRUE(v.shrunk_verified);
  EXPECT_LE(v.shrunk.size(), v.trace.size());
}

TEST(RaceOracle, ShrunkRaceTraceStillRacesOnReplay) {
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 1;
  opts.budget = 200;
  opts.check_races = true;
  const ExploreResult result = explore(cell, opts);
  ASSERT_TRUE(result.race_found());
  const ExploreViolation& v = result.violations.front();
  ASSERT_TRUE(v.shrunk_verified);

  cell.check_races = true;
  const RunRecord rec = replay_trace(cell, v.shrunk);
  EXPECT_TRUE(rec.races_checked);
  EXPECT_TRUE(rec.raced());
  // The replayed report carries the shrunk schedule's identity.
  EXPECT_EQ(rec.race_reports.front().schedule_digest, rec.schedule_digest);
}

TEST(RaceOracle, CleanScenariosStaySilentAcrossSeededBudget) {
  struct Case {
    const char* scenario;
    ModelSpec model;
  };
  // trivial_kset and group_kset are the Figure 7 chain's scenario
  // family, run on their direct hop (the race oracle is direct-only).
  const Case cases[] = {
      {"step_churn", ModelSpec{3, 0, 1}},
      {"snapshot_churn", ModelSpec{3, 0, 1}},
      {"trivial_kset", ModelSpec{3, 1, 1}},
      {"group_kset", ModelSpec{4, 1, 2}},
      {"single_object_consensus", ModelSpec{2, 0, 2}},
  };
  for (const Case& c : cases) {
    const ExperimentCell cell = named_cell(c.scenario, c.model, 1);
    ExploreOptions opts;
    opts.policy = ExplorePolicy::kSeededRandom;
    opts.seed = 7;
    opts.budget = 60;
    opts.max_violations = 0;  // scan the whole budget
    opts.shrink_violations = false;
    opts.check_races = true;
    const ExploreResult result = explore(cell, opts);
    EXPECT_FALSE(result.race_found()) << c.scenario;
    EXPECT_EQ(result.race_reports(), 0) << c.scenario;
    EXPECT_TRUE(result.violations.empty()) << c.scenario;
  }
}

TEST(RaceOracle, ShardedRaceSearchMatchesInProcess) {
  const ExperimentCell cell =
      named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  ExploreOptions local;
  local.policy = ExplorePolicy::kPct;
  local.seed = 1;
  local.budget = 100;
  local.max_violations = 3;
  local.check_races = true;
  const ExploreResult a = explore(cell, local);

  ExploreOptions sharded = local;
  sharded.shards = 2;  // fork workers: no binary needed
  const ExploreResult b = explore(cell, sharded);

  ASSERT_TRUE(a.race_found());
  ASSERT_TRUE(b.race_found());
  // The whole result — violations, records, race reports, shrunk
  // traces — serializes byte-identically (RunRecord JSON carries no
  // timing), the same contract the run path pins for sharded grids.
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(RaceOracle, CheckRacesRequiresDirectLockstep) {
  ExperimentCell simulated =
      Experiment::named("racy_register", ModelSpec{2, 0, 1})
          .in(ModelSpec{2, 0, 1})
          .inputs_fn(index_inputs)
          .cells()
          .front();
  simulated.check_races = true;
  const RunRecord rec = run_cell(simulated);
  EXPECT_FALSE(rec.error.empty());
  EXPECT_FALSE(rec.races_checked);
}

// --------------------------------------------------- wire + record + diff

TEST(RaceOracle, CheckRacesCrossesTheWireAndRecordsRoundTrip) {
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  cell.check_races = true;
  cell.record_schedule = true;
  const CellSpec spec = CellSpec::from_cell(cell);
  EXPECT_TRUE(spec.check_races);
  const CellSpec reparsed = CellSpec::from_json(spec.to_json());
  EXPECT_TRUE(reparsed.check_races);
  EXPECT_TRUE(reparsed.to_cell().check_races);

  // A record with race reports survives the wire's JSON round trip.
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 1;
  opts.budget = 200;
  opts.check_races = true;
  opts.shrink_violations = false;
  const ExploreResult result = explore(cell, opts);
  ASSERT_TRUE(result.race_found());
  const RunRecord& rec = result.violations.front().record;
  const RunRecord back = RunRecord::from_json(rec.to_json());
  EXPECT_TRUE(back.races_checked);
  ASSERT_EQ(back.race_reports.size(), rec.race_reports.size());
  EXPECT_EQ(back.race_reports.front(), rec.race_reports.front());
  EXPECT_EQ(back.to_json().dump(), rec.to_json().dump());

  // Unchecked records keep their pre-oracle JSON shape: no races_checked
  // or race_reports keys to perturb byte-identity with old reports.
  ExperimentCell plain = named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  const Json j = run_cell(plain).to_json();
  EXPECT_EQ(j.find("races_checked"), nullptr);
  EXPECT_EQ(j.find("race_reports"), nullptr);
}

TEST(RaceOracle, DiffFlagsRaceRegressions) {
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 1;
  opts.budget = 200;
  opts.check_races = true;
  opts.shrink_violations = false;
  const ExploreResult result = explore(cell, opts);
  ASSERT_TRUE(result.race_found());

  Report racy;
  racy.title = "b";
  racy.records.push_back(result.violations.front().record);
  Report clean = racy;
  clean.records.front().race_reports.clear();

  // clean -> racy is a regression; racy -> clean is a fix, not one.
  const ReportDiff regressed = diff_reports(clean, racy);
  EXPECT_EQ(regressed.race_regressions, 1);
  EXPECT_TRUE(regressed.has_regressions());
  EXPECT_NE(regressed.summary().find("RACE REGRESSION"), std::string::npos);

  const ReportDiff fixed = diff_reports(racy, clean);
  EXPECT_EQ(fixed.race_fixes, 1);
  EXPECT_FALSE(fixed.has_regressions());
  EXPECT_NE(fixed.summary().find("no regressions"), std::string::npos);
  EXPECT_NE(fixed.summary().find("race fix"), std::string::npos);

  // Unchecked vs checked compares nothing race-wise.
  Report unchecked = racy;
  unchecked.records.front().races_checked = false;
  unchecked.records.front().race_reports.clear();
  const ReportDiff mixed = diff_reports(unchecked, racy);
  EXPECT_EQ(mixed.race_regressions, 0);
}

}  // namespace
}  // namespace mpcn
