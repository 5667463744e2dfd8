// The metrics registry: named counters, plain integers snapshotable to
// JSON and mergeable across processes. Every number the program reports
// about its runs is a count, so a counter is the only metric kind.
//
// Design contract (the headline invariant of the telemetry layer):
//
//   * SIDECAR-ONLY. Metrics never touch a Report or a RunRecord —
//     report bytes are identical with instrumentation exported or not.
//     Export goes to its own file (`mpcn ... --metrics out.json`).
//   * ALWAYS COMPILED IN, ALWAYS CHEAP. Instrumented sites pay one
//     integer add whether or not anyone ever snapshots. No process runs
//     a second thread (in-process runs, the shard coordinator and each
//     shard worker all count and read on one), so a metric is a plain
//     word.
//   * MERGEABLE. A MetricsSnapshot is a pure bag of sums: merging is
//     field-wise addition, hence commutative and associative — worker
//     snapshots arriving over the wire in any order aggregate to the
//     same pool-wide totals.
//
// Hot-path idiom: resolve the metric once into a function-local static
// reference, then increment through it —
//
//   static Counter& c = metrics_registry().counter("explore.steps");
//   c.add();
//
// A registry lookup walks a map, so sites resolve once; metric objects
// are never destroyed or moved, so cached references stay valid for the
// life of the process.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/common/json.h"

namespace mpcn {

// Monotonic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

// ----------------------------------------------------------- snapshots

// A point-in-time, process-free copy of metric values. Plain data:
// serializes to JSON, parses back, and merges by field-wise addition.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;

  bool empty() const { return counters.empty(); }

  // Field-wise sum: commutative and associative, so worker snapshots
  // aggregate to the same totals in any arrival order.
  void merge(const MetricsSnapshot& other);

  // Counter-wise difference against an earlier snapshot of the SAME
  // process: what changed since `prev`. Counters are monotonic, so the
  // difference saturates at zero rather than wrapping if `prev` is from
  // after a reset. Zero entries are dropped — a heartbeat delta carries
  // only what moved, and folding deltas back with merge() reconstructs
  // the cumulative totals. This is the payload of the wire's streaming
  // telemetry message.
  MetricsSnapshot delta_since(const MetricsSnapshot& prev) const;

  // Deterministic dump, {"counters":{...}}: keys sorted (std::map
  // order), zero-valued entries included — the metric catalog is part
  // of the output.
  Json to_json() const;
  static MetricsSnapshot from_json(const Json& j);  // throws JsonError
};

// ------------------------------------------------------------ registry

// Name -> metric. Returned references are stable for the process
// lifetime (metrics are never destroyed), so hot paths cache them in
// function-local statics and never look them up again.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);

  MetricsSnapshot snapshot() const;

  // The telemetry-heartbeat fast path: snapshot().delta_since(prev)
  // serialized to compact JSON, fused into one pass over the registry
  // with no intermediate snapshot, delta map or Json tree. `prev` is
  // updated in place to the values just read (map nodes are reused
  // after the first beat — metric names only ever grow), and `out` is
  // clear()ed and refilled so its capacity amortizes across beats. The
  // output parses back through MetricsSnapshot::from_json to exactly
  // what delta_since would have produced: saturating diffs, zero entries
  // dropped. Keeps a per-beat cost of a few loads per counter, which is
  // what holds streamed-telemetry overhead under the bench gate on
  // sub-millisecond cells.
  void delta_json(MetricsSnapshot& prev, std::string& out) const;

  // Zero every registered counter (objects survive; cached references
  // stay valid). Used by tests and by freshly forked shard workers so a
  // worker snapshot never double-counts the coordinator's pre-fork
  // activity.
  void reset();

 private:
  // Map nodes never move, so references into them stay valid.
  std::map<std::string, Counter> counters_;
};

// The process-global registry every instrumented site reports into.
MetricsRegistry& metrics_registry();

}  // namespace mpcn
