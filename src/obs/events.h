// The flight recorder: an append-only JSONL log of timestamped
// structured events (`mpcn ... --events out.jsonl`).
//
// Where metrics answer "how much" and spans answer "how long", the
// event log answers "what happened, in what order": worker spawns,
// deaths, respawns and backoff waits; cell dispatches and requeues;
// heartbeat gaps; violations, races and crash-violations as the
// explorer finds them; shrink begin/end. It is the artifact you read
// after a sharded search went sideways — `mpcn events LOG` summarizes
// one into per-worker lifelines, requeue chains and a violation
// timeline.
//
// Like the rest of src/obs this is sidecar-only (a Report never sees
// it) and off by default: with no log open, log_event() is one load and
// a branch. Each event is one JSON object per line:
//
//   {"ts_us":<µs since trace origin>,"type":"<event type>", ...fields}
//
// ts_us shares trace_now_us()'s origin, so event timestamps line up
// with span timestamps in the same process. Each line is one write(2)
// from the process's one thread. The log is written by the COORDINATOR
// and explorer only — workers report over the wire and the coordinator
// records the event — so one run yields one log with non-decreasing
// timestamps.
// Forked shard workers must call close_event_log() (fork path does)
// so a child never appends to the parent's file.
#pragma once

#include <string>

#include "src/common/json.h"

namespace mpcn {

// True iff a log is open; every log_event() checks it first.
bool events_enabled();

// Open (create/truncate) the log. Returns false and leaves events
// disabled if the file cannot be opened. Opening while a log is open
// closes the previous one.
bool open_event_log(const std::string& path);

// Close the log (no-op when none is open). Idempotent; also what a
// forked child calls to detach from the parent's log.
void close_event_log();

// Append one event. `type` names the event (e.g. "worker_spawn");
// `fields` is an object of type-specific fields merged after the
// standard "ts_us" and "type" keys. No-op when no log is open.
void log_event(const char* type, Json fields = Json::object());

}  // namespace mpcn
