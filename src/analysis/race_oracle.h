// Happens-before race oracle over explored schedules.
//
// A lock-step run leaves two artifacts behind: the HistoryRecorder event
// log (one Event per register write / snapshot, step-clock stamped) and
// the LockstepController grant trace. This module turns the pair into a
// race analysis: it rebuilds the happens-before order induced by the
// grant schedule — program order per ThreadId plus reads-from edges
// (write -> snapshot that observed it), tracked with vector clocks — and
// reports conflicting accesses to the same simulated register cell that
// the order does not justify.
//
// The analysis is one linear pass in the style of FastTrack (Flanagan &
// Freund, PLDI 2009): threads are numbered densely per history, every
// event stores one flat clock row, and happens_before(a, b) compares a's
// own component with b's row in O(1).
//
// What counts as a race here is deliberately narrower than "any
// unordered conflicting pair". The model's cells are atomic registers
// with a single-writer discipline, so a snapshot racing a write is the
// NORMAL case — every reader scans while writers keep writing, and the
// register's atomicity makes the outcome well-defined. The oracle flags
// the two situations atomicity does NOT excuse:
//
//  * torn windows — a writer installs value B over A and repairs it
//    back to A with its very next shared-memory operation (an
//    ABA/revert blip: the signature of a logically-atomic multi-step
//    publication whose intermediate state the writer immediately
//    repudiates). A snapshot by another thread that observes B inside
//    the window, without a happens-before path from the observation to
//    the repairing write, saw state the writer never meant to publish.
//    This is exactly the racy_register exhibit's torn pair write.
//
//  * multi-writer conflicts — two writes to the same cell from
//    different ThreadIds with no happens-before path between them. The
//    single-writer discipline makes these impossible for well-behaved
//    programs (PrimitiveSnapshot enforces pid == index), but simulator
//    child threads share their parent's pid, so the discipline alone
//    does not order same-pid sub-threads; the vector clocks do (q0 and
//    q0.0 are two threads).
//
// Every RaceReport is JSON-serializable (both access sites, step-clock
// stamps, the schedule digest) so a race found by a sharded search
// replays with one command:
//   mpcn explore <scenario> --in n,t,x --replay trace.json --check-races
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/json.h"
#include "src/common/value.h"
#include "src/explore/trace.h"
#include "src/history/history.h"

namespace mpcn {

// ------------------------------------------------------ happens-before

// The happens-before order of one recorded run: program order per
// ThreadId plus reads-from edges (a snapshot joins the clock of every
// write it observed). Event indices refer to the event vector handed to
// compute_happens_before.
struct HbAnalysis {
  int threads = 0;          // distinct ThreadIds, numbered by first event
  std::vector<int> thread;  // thread[i] = dense thread number of event i
  // Row i, `threads` wide: the vector clock AT event i.
  std::vector<std::uint32_t> clocks;
  // Reads-from edges, one slot per cell of each snapshot's view: the
  // slots of event i are [view_begin[i], view_begin[i + 1]), and a slot
  // holds the write event observed there, or -1 when the snapshot saw
  // the initial value or one no write explains.
  std::vector<int> view_begin;
  std::vector<int> observed;

  // Event a happens-before event b: a's own tick is visible at b.
  bool happens_before(int a, int b) const;
  // The write event `snapshot` observed at `cell`, or -1 for none.
  int reads_from(int snapshot, int cell) const;
};

HbAnalysis compute_happens_before(const std::vector<Event>& events);

// ------------------------------------------------------- race reports

enum class RaceKind { kTornWindow, kMultiWriter };

const char* to_string(RaceKind kind);
RaceKind race_kind_from_string(const std::string& s);

// One access site of a race, decoded from its Event.
struct AccessSite {
  ThreadId tid{};
  std::string op;        // "write" | "snapshot"
  int event_index = -1;  // position in the recorded history
  std::uint64_t invoke_step = 0;
  std::uint64_t response_step = 0;
  Value value;  // write: the value written; snapshot: the cell value seen

  Json to_json() const;
  static AccessSite from_json(const Json& j);
  bool operator==(const AccessSite& o) const;
};

struct RaceReport {
  RaceKind kind = RaceKind::kTornWindow;
  int cell = -1;  // register cell index the accesses collide on

  // kTornWindow: first = the blip write, second = the observing
  // snapshot. kMultiWriter: the two unordered writes, history order.
  AccessSite first;
  AccessSite second;

  // kTornWindow only: the exposed intermediate value, the value the
  // writer reverted to, and the step-clock window [begin, end] between
  // the blip write's response and the repairing write's response.
  Value blip;
  Value restored;
  std::uint64_t window_begin = 0;
  std::uint64_t window_end = 0;

  // Schedule identity of the run that produced the race, for replay.
  std::string schedule_digest;

  std::string why;  // one-line human explanation

  Json to_json() const;
  static RaceReport from_json(const Json& j);  // throws ProtocolError
  bool operator==(const RaceReport& o) const;
  bool operator!=(const RaceReport& o) const { return !(*this == o); }
};

// Analyze one recorded run. `events` is the HistoryRecorder log (its
// order is the linearization order — the lock-step token serializes the
// recording sites; a foreign log whose response stamps are out of order
// is analyzed in stable response order). `grants` is the run's grant
// trace: when `schedule_digest` is empty, its digest names the schedule
// in every report, and it is hashed only when there is a report.
// Deterministic: equal inputs yield equal reports in equal order
// (history order of the second access site, then of the first).
std::vector<RaceReport> find_races(const std::vector<Event>& events,
                                   const ScheduleTrace& grants,
                                   std::string schedule_digest = "");

}  // namespace mpcn
