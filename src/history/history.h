// Operation histories: the raw material of linearizability checking and
// of the race oracle (src/analysis/race_oracle.h).
//
// A direct-mode run given a recorder records one Event per register
// write and snapshot (invocation step stamp, response step stamp,
// operation name, argument, return value). The stamps come from the
// global step clock, so the real-time partial order of the history is
// exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/value.h"

namespace mpcn {

struct Event {
  ThreadId tid{};
  std::string op;        // e.g. "write", "snapshot", "read"
  Value arg;             // operation argument ([index, v] for writes)
  Value ret;             // return value (snapshot view, read value, ...)
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
