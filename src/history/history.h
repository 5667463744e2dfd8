// Operation histories: the raw material of linearizability checking and
// of the race oracle (src/analysis/race_oracle.h).
//
// A direct-mode run given a recorder records one Event per mem write and
// snapshot: its kind, the cell and value a write wrote, the view a
// snapshot returned, and invocation and response stamps from the global
// step clock, so the real-time partial order of the history is exact.
// The fields are typed so that recording costs no allocation beyond a
// snapshot's view: a write of an int stores the int, and a write of a
// string or list shares the writer's payload.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/ids.h"
#include "src/common/value.h"

namespace mpcn {

enum class EventOp : std::uint8_t { kWrite, kSnapshot };

inline const char* to_string(EventOp op) {
  return op == EventOp::kWrite ? "write" : "snapshot";
}

struct Event {
  ThreadId tid{};
  EventOp op = EventOp::kWrite;
  int cell = -1;            // write: the cell written; negative: none
  Value value;              // write: the value written
  std::vector<Value> view;  // snapshot: the view returned
  std::uint64_t invoke_step = 0;
  std::uint64_t response_step = 0;
};

// Append-only event log, written by the fibers of one run, which take
// turns. The explorer reuses one recorder per worker: reset() empties the
// log and keeps its buffer, so a schedule refills warm memory instead of
// growing a new vector.
class HistoryRecorder {
 public:
  void record(Event e) { events_.push_back(std::move(e)); }

  // The log, read in place once the run that records into it is over.
  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  // Drop all events, keeping the buffer's capacity. The recorder is
  // immediately reusable.
  void reset() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

}  // namespace mpcn
