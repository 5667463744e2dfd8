// The metrics registry: named counters, gauges and histograms, plain
// integers snapshotable to JSON and mergeable across processes.
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

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

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

// Last-writer-wins signed level (queue depths, pool sizes): gauges
// record state, not events, and are set from one site at a time.
class Gauge {
 public:
  void set(std::int64_t v) { v_ = v; }
  void add(std::int64_t d) { v_ += d; }
  std::int64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::int64_t v_ = 0;
};

// Exponential (power-of-two) bucket histogram for nonnegative samples
// (latencies in µs, sizes in bytes). Bucket 0 holds exactly {0}; bucket
// i >= 1 holds [2^(i-1), 2^i); the last bucket absorbs everything above
// 2^(kBuckets-2). record() is two adds (bucket + sum).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  static std::size_t bucket_index(std::uint64_t sample) {
    if (sample == 0) return 0;
    std::size_t i = 1;
    while (i + 1 < kBuckets && (sample >>= 1) != 0) ++i;
    return i;
  }
  // Lower edge of bucket i: 0 for bucket 0, else 2^(i-1).
  static std::uint64_t bucket_floor(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  void record(std::uint64_t sample) {
    ++buckets_[bucket_index(sample)];
    sum_ += sample;
  }
  std::uint64_t count() const {
    std::uint64_t c = 0;
    for (std::uint64_t b : buckets_) c += b;
    return c;
  }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }
  void reset() {
    buckets_.fill(0);
    sum_ = 0;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t sum_ = 0;
};

// ----------------------------------------------------------- snapshots

// A point-in-time, process-free copy of metric values. Plain data:
// serializes to JSON, parses back, and merges by field-wise addition.
struct MetricsSnapshot {
  struct HistogramData {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    // Trailing zero buckets trimmed; merge pads to the longer vector.
    std::vector<std::uint64_t> buckets;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // Field-wise sum: commutative and associative, so worker snapshots
  // aggregate to the same totals in any arrival order.
  void merge(const MetricsSnapshot& other);

  // Field-wise difference against an earlier snapshot of the SAME
  // process: what changed since `prev`. Counters and histogram fields
  // are monotonic, so the difference saturates at zero rather than
  // wrapping if `prev` is from after a reset. All-zero entries are
  // dropped — a heartbeat delta carries only what moved, and folding
  // deltas back with merge() reconstructs the cumulative totals. This
  // is the payload of the wire's streaming telemetry message.
  MetricsSnapshot delta_since(const MetricsSnapshot& prev) const;

  // Deterministic dump: keys sorted (std::map order), zero-valued
  // entries included — the metric catalog is part of the output.
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
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  // The telemetry-heartbeat fast path: snapshot().delta_since(prev)
  // serialized to compact JSON, fused into one pass over the registry
  // with no intermediate snapshot, delta map or Json tree. `prev` is
  // updated in place to the values just read (map nodes are reused
  // after the first beat — metric names only ever grow), and `out` is
  // clear()ed and refilled so its capacity amortizes across beats. The
  // output parses back through MetricsSnapshot::from_json to exactly
  // what delta_since would have produced: saturating counter/histogram
  // diffs, signed gauge diffs, all-zero entries dropped, trailing zero
  // buckets trimmed. Keeps a per-beat cost of a few loads per metric,
  // which is what holds streamed-telemetry overhead under the bench gate
  // on sub-millisecond cells.
  void delta_json(MetricsSnapshot& prev, std::string& out) const;

  // Zero every registered metric (objects survive; cached references
  // stay valid). Used by tests and by freshly forked shard workers so a
  // worker snapshot never double-counts the coordinator's pre-fork
  // activity.
  void reset();

 private:
  // Map nodes never move, so references into them stay valid.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// The process-global registry every instrumented site reports into.
MetricsRegistry& metrics_registry();

}  // namespace mpcn
