// Scoped spans: wall-time intervals recorded into one ring buffer and
// exported as Chrome trace-event JSON (the `traceEvents` format Perfetto
// and chrome://tracing load directly).
//
// Like the metrics registry (metrics.h) this is sidecar-only: spans
// never touch a Report, and when tracing is disabled — the default — a
// ScopedSpan constructor is one load and a branch. Enabling is
// process-wide (`mpcn ... --trace out.trace.json` turns it on before the
// run starts).
//
// No process runs a second thread, so the process owns one
// fixed-capacity ring: recording a span is a couple of stores, and
// overflow silently drops the OLDEST events (a drop counter says how
// many). Every exported event carries tid 1. Span names must be string
// literals (the ring stores the pointer, not a copy).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.h"

namespace mpcn {

// Process-wide switch. Off by default; every ScopedSpan checks it with
// one load.
bool tracing_enabled();
void set_tracing_enabled(bool on);

// Microseconds since the first call in this process (steady clock).
std::uint64_t trace_now_us();

// Record one completed interval on the ring. `name` and `category`
// must be string literals (or otherwise outlive the process). Used
// directly by sites that measure an interval without a scope (e.g. the
// shard coordinator timing a cell round-trip).
// `cell_index >= 0` attaches an `"args":{"cell_index":N}` object to the
// exported event, letting a merged multi-process trace correlate a
// coordinator-side `shard.cell` with the worker-side `worker.cell` that
// executed the same cell.
void record_span(const char* name, const char* category,
                 std::uint64_t start_us, std::uint64_t dur_us,
                 std::int64_t cell_index = -1);

// RAII span: measures construction -> destruction when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "mpcn",
                      std::int64_t cell_index = -1) {
    if (!tracing_enabled()) return;
    name_ = name;
    category_ = category;
    cell_index_ = cell_index;
    start_us_ = trace_now_us();
  }
  ~ScopedSpan() {
    if (name_ == nullptr) return;
    record_span(name_, category_, start_us_, trace_now_us() - start_us_,
                cell_index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr = tracing was off at entry
  const char* category_ = nullptr;
  std::int64_t cell_index_ = -1;
  std::uint64_t start_us_ = 0;
};

// Export the ring as one Chrome trace-event document:
//   {"traceEvents":[{"name":...,"cat":...,"ph":"X","ts":...,"dur":...,
//                    "pid":1,"tid":1}, ...],
//    "displayTimeUnit":"ms","droppedEvents":<n>}
// Events are sorted by ts for viewer friendliness.
Json dump_trace_json();

// Drop all recorded spans. Tests and repeated in-process runs use this
// between captures.
void reset_trace();

// ------------------------------------------------- multi-process merge

// One process's contribution to a merged trace: the single-process
// document produced by dump_trace_json() (local ts origin, pid 1),
// plus the identity and clock alignment the merge needs.
struct ProcessTrace {
  int pid = 1;                     // pid lane in the merged document
  std::string name;                // e.g. "coordinator", "worker 0"
  std::int64_t ts_offset_us = 0;   // added to every ts (clock alignment)
  Json doc;                        // a dump_trace_json() document
};

// Merge per-process dumps into one Perfetto-loadable document. Each
// input's events are re-stamped with its pid and shifted by its
// ts_offset_us; a `process_name` metadata event (ph "M") per process
// labels the lane. X events are sorted by (ts, pid, tid) after the
// metadata block, droppedEvents are summed, and inputs whose doc is not
// a trace document (e.g. a worker that died before replying) are
// skipped. Only the merged document carries "M" events — the
// single-process dump_trace_json() format is unchanged.
Json merge_trace_docs(const std::vector<ProcessTrace>& procs);

}  // namespace mpcn
