// The JSON-lines wire protocol for cross-process experiment shards.
//
// A coordinator (shard.h) and its forked workers exchange exactly one
// JSON object per newline-terminated line:
//
//   worker -> coordinator   {"type":"hello","protocol":1}
//   coordinator -> worker   {"type":"cell","id":<i>,"spec":{...}}
//   worker -> coordinator   {"type":"result","id":<i>,"record":{...}}
//   coordinator -> worker   {"type":"range","id":<i>,"first":<f>,
//                            "count":<c>,"spec":{...}}
//   worker -> coordinator   {"type":"range_result","id":<i>,
//                            "steps":[...],"records":[{...},...]}
//   coordinator -> worker   {"type":"shutdown"}
//   coordinator -> worker   {"type":"shutdown","metrics":true,"trace":true}
//   worker -> coordinator   {"type":"metrics","snapshot":{...}}
//   worker -> coordinator   {"type":"trace","trace":{...}}
//   worker -> coordinator   {"type":"error","message":"..."}   (bad line)
//
// plus the streaming telemetry line:
//
//   worker -> coordinator   {"type":"telemetry","seq":<k>,"now_us":<t>,
//                            "delta":{...}}
//
// A worker whose heartbeat is armed (WorkerOptions::heartbeat, set by
// the coordinator before it forks the worker) volunteers one after
// hello, after every job and, with an interval, every interval: a
// monotonically increasing heartbeat sequence number, its wall-clock
// (trace_now_us) and a MetricsSnapshot DELTA since its previous beat —
// the coordinator folds deltas by merge() to reconstruct totals and
// keeps a per-worker health table keyed on heartbeat age.
//
// The metrics/trace exchanges are telemetry-only and opt-in: a plain
// shutdown line is byte-identical to the pre-telemetry protocol and
// gets no reply; "metrics":true asks the worker to answer with one
// snapshot (src/obs/metrics.h) of its process-local counters, and
// "trace":true with one dump_trace_json() document (src/obs/spans.h),
// before exiting — so the coordinator can merge a pool-wide view.
// Reports never carry metrics — the byte-identity discipline is
// untouched; every new field and message type is strictly additive.
//
// Grids (`mpcn run`) use the cell/result pair. A random/PCT search
// (`mpcn explore --shards`) uses the range pair instead: one range line
// carries the search's base spec once, whose schedule is schedule 0's,
// plus a contiguous block [first, first + count) of schedule indices;
// schedule i is that spec with cell_index = i and schedule seed + i. The
// reply lists every schedule's step count in index order and carries a
// full RunRecord only for the block's violating schedules and for
// schedule 0 (the search's first_trace) — a clean schedule costs its
// step count on the wire, nothing more.
//
// The framing is safe because Json::dump() escapes control characters —
// a compact dump never contains a raw newline. Unparsable or truncated
// lines throw WireError, which both sides turn into a captured per-cell
// error or a worker-death requeue, never a crash.
//
// A CellSpec is the wire form of one ExperimentCell: everything needed
// to REBUILD the cell in another process. Algorithms and tasks are not
// serializable (they are closures), so cells cross the wire by registry
// name — the worker re-runs Scenario::make_algorithm / make_task for the
// spec's source model, which is deterministic, making the worker's
// RunRecord byte-identical (timing excluded) to an in-process run of the
// same cell. Consequently only cells built from named scenarios
// (Experiment::named) are wire-serializable; from_cell() rejects
// anonymous algorithms and custom tasks with ProtocolError.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/experiment/experiment.h"
#include "src/experiment/record.h"
#include "src/obs/metrics.h"

namespace mpcn {

constexpr int kWireProtocolVersion = 1;

// A malformed wire line (garbage, truncated JSON, unknown message type,
// missing fields). Recoverable by design: the receiver decides whether
// to answer with an error line or to write the peer off.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

// The registry-addressed, self-contained description of one grid cell.
struct CellSpec {
  std::string scenario;  // registry name (never empty on the wire)
  ModelSpec source;      // model the algorithm is built for
  ExecutionMode mode = ExecutionMode::kDirect;
  ModelSpec target;
  int hop_index = -1;
  int cell_index = -1;
  MemKind mem = MemKind::kPrimitive;
  bool check_legality = true;
  // Attach the scenario's canonical task (custom tasks do not serialize).
  bool use_scenario_task = false;

  // ExecutionOptions, flattened.
  std::uint64_t seed = 1;
  std::uint64_t step_limit = 1'000'000;
  std::int64_t wall_limit_ms = 120'000;
  bool stop_when_all_correct_decided = true;
  CrashPlan crashes = CrashPlan::none();

  // Schedule-explorer fields (src/explore/): the declarative grant
  // policy and whether to ship the grant trace back in the record. This
  // is what lets explore batches shard like any experiment grid. An
  // in-process policy object (ExecutionOptions::schedule_policy) or
  // history hook is NOT serializable; from_cell rejects cells carrying
  // one.
  ScheduleSpec schedule;
  bool record_schedule = false;
  // Run the race oracle worker-side (src/analysis/). Serializable —
  // unlike the history hook — because the worker rebuilds the identical
  // recorder + analysis, keeping shard records byte-identical.
  bool check_races = false;

  std::vector<Value> inputs;

  Json to_json() const;
  static CellSpec from_json(const Json& j);  // throws WireError

  // Wire form of an executable cell. Throws ProtocolError when the cell
  // is not wire-representable: no algorithm, unnamed scenario, a name
  // not in the registry, an in-process policy object or history hook,
  // or a task that is not the scenario's canonical one for the cell's
  // source model.
  static CellSpec from_cell(const ExperimentCell& cell);

  // Rebuild the executable cell through the scenario registry. Throws
  // ProtocolError for unknown scenarios or invalid models.
  ExperimentCell to_cell() const;

  // A RunRecord carrying this spec's identity fields and `error` — what
  // a worker answers when to_cell()/run fails before run_cell() could
  // stamp a record itself. The single copy site for spec -> record
  // identity, so the two cannot drift.
  RunRecord error_record(std::string error) const;
};

// The payload of a range_result line: steps[k] is schedule first + k's
// step count; records holds the RunRecords of the range's violating
// schedules, plus schedule 0's, in index order.
struct RangeResult {
  std::vector<std::uint64_t> steps;
  std::vector<RunRecord> records;
};

// ------------------------------------------------------------- framing

struct WireMessage {
  enum class Type {
    kHello,
    kCell,
    kResult,
    kRange,
    kRangeResult,
    kShutdown,
    kError,
    kMetrics,
    kTelemetry,
    kTrace,
  };
  Type type = Type::kError;
  int protocol = 0;                 // kHello
  // kCell / kResult / kRange / kRangeResult: coordinator job id.
  std::int64_t id = -1;
  std::optional<CellSpec> spec;     // kCell, kRange (schedule 0's spec)
  std::optional<RunRecord> record;  // kResult (timing included)
  int first = 0;                    // kRange: first schedule index
  int count = 0;                    // kRange: schedules in the range
  std::optional<RangeResult> range;  // kRangeResult
  std::string message;              // kError
  bool want_metrics = false;        // kShutdown: reply with a snapshot
  bool want_trace = false;          // kShutdown: reply with spans too
  // kTelemetry: the heartbeat's seq, the worker's trace_now_us clock,
  // and its delta in `snapshot`.
  std::int64_t telemetry_seq = -1;
  std::int64_t worker_now_us = 0;
  std::optional<MetricsSnapshot> snapshot;  // kMetrics / kTelemetry
  std::optional<Json> trace_doc;            // kTrace
};

// Encoders return the compact single-line JSON WITHOUT the trailing
// newline (LineIO appends it).
std::string hello_line();
std::string cell_line(std::int64_t id, const CellSpec& spec);
std::string result_line(std::int64_t id, const RunRecord& record);
std::string range_line(std::int64_t id, int first, int count,
                       const CellSpec& spec);
std::string range_result_line(std::int64_t id, const RangeResult& result);
// want_metrics = want_trace = false emits the pre-telemetry
// {"type":"shutdown"} bytes; the flags ask the worker for a metrics
// and/or trace line before it exits.
std::string shutdown_line(bool want_metrics = false, bool want_trace = false);
std::string error_line(const std::string& message);
std::string metrics_line(const MetricsSnapshot& snapshot);
// Telemetry (worker -> coordinator): heartbeat `seq`, the
// worker's trace_now_us clock, and the metrics delta since its last beat
// as a pre-serialized document (the compact {"counters":...} JSON that
// MetricsRegistry::delta_json emits) — a beat builds no Json tree.
std::string telemetry_line(std::int64_t seq, std::int64_t now_us,
                           const std::string& delta_json);
// Trace reply (worker -> coordinator): a dump_trace_json() document.
std::string trace_line(const Json& doc);

// A short printable excerpt of a (possibly binary / overlong) wire line
// for diagnostics: control bytes escaped, truncated to ~120 chars with
// the original byte count appended. Exposed for tests.
std::string wire_excerpt(const std::string& line);

// Parse one line into a message. Throws WireError on anything that is
// not exactly one well-formed message object.
WireMessage parse_wire_line(const std::string& line);

// ----------------------------------------------------------- transport

// One line in, one line out. The seam between protocol logic and I/O so
// the worker loop is testable without processes (StringLineIO) and
// drivable over any fd pair (FdLineIO: pipes, socketpairs).
class LineIO {
 public:
  virtual ~LineIO() = default;
  // False on EOF or error. Strips the trailing '\n'.
  virtual bool read_line(std::string& out) = 0;
  // Appends '\n' and writes the whole line. False on error.
  virtual bool write_line(const std::string& line) = 0;
  // Write two lines back to back; transports may coalesce them into one
  // flush (FdLineIO: one syscall, one reader wakeup — what lets an
  // after-cell heartbeat ride its result reply for free).
  virtual bool write_lines(const std::string& a, const std::string& b) {
    return write_line(a) && write_line(b);
  }
  // Wait up to `timeout` until read_line can return without blocking (a
  // whole line buffered, or EOF or an error to report); false on timeout.
  // What lets an idle worker beat on time from its one thread. The
  // default never waits: a transport that cannot poll returns true and
  // leaves read_line to block.
  virtual bool await_line(std::chrono::milliseconds /*timeout*/) {
    return true;
  }
};

class FdLineIO : public LineIO {
 public:
  FdLineIO(int read_fd, int write_fd)
      : read_fd_(read_fd), write_fd_(write_fd) {}
  bool read_line(std::string& out) override;
  bool write_line(const std::string& line) override;
  bool write_lines(const std::string& a, const std::string& b) override;
  bool await_line(std::chrono::milliseconds timeout) override;

 private:
  // One read(2) into buffer_; false on EOF or an error.
  bool fill();

  int read_fd_;
  int write_fd_;
  std::string buffer_;
};

// In-memory transport for tests: consumes a scripted input, records
// every written line.
class StringLineIO : public LineIO {
 public:
  explicit StringLineIO(std::vector<std::string> input)
      : input_(std::move(input)) {}
  bool read_line(std::string& out) override;
  bool write_line(const std::string& line) override;
  const std::vector<std::string>& written() const { return written_; }

 private:
  std::vector<std::string> input_;
  std::size_t next_ = 0;
  std::vector<std::string> written_;
};

}  // namespace mpcn
