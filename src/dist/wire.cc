#include "src/dist/wire.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <limits>

#include "src/common/errors.h"
#include "src/experiment/registry.h"

namespace mpcn {

Json CellSpec::to_json() const {
  Json j = Json::object();
  j.set("scenario", scenario)
      .set("source", model_spec_to_json(source))
      .set("mode", to_string(mode))
      .set("target", model_spec_to_json(target))
      .set("hop_index", hop_index)
      .set("cell_index", cell_index)
      .set("mem", to_string(mem))
      .set("check_legality", check_legality)
      .set("use_scenario_task", use_scenario_task)
      .set("seed", static_cast<std::int64_t>(seed))
      .set("step_limit", static_cast<std::int64_t>(step_limit))
      .set("wall_limit_ms", wall_limit_ms)
      .set("stop_when_all_correct_decided", stop_when_all_correct_decided)
      .set("crashes", crashes.to_json());
  // Explore fields only when active: pre-explorer coordinators and
  // workers keep exchanging byte-identical cell lines.
  if (!schedule.is_default()) j.set("schedule", schedule.to_json());
  if (record_schedule) j.set("record_schedule", true);
  if (check_races) j.set("check_races", true);
  Json in = Json::array();
  for (const Value& v : inputs) in.push(value_to_json(v));
  j.set("inputs", std::move(in));
  return j;
}

CellSpec CellSpec::from_json(const Json& j) {
  try {
    CellSpec spec;
    spec.scenario = j.at("scenario").as_string();
    spec.source = model_spec_from_json(j.at("source"));
    spec.mode = execution_mode_from_string(j.at("mode").as_string());
    spec.target = model_spec_from_json(j.at("target"));
    spec.hop_index = static_cast<int>(j.at("hop_index").as_int());
    spec.cell_index = static_cast<int>(j.at("cell_index").as_int());
    spec.mem = mem_kind_from_string(j.at("mem").as_string());
    spec.check_legality = j.at("check_legality").as_bool();
    spec.use_scenario_task = j.at("use_scenario_task").as_bool();
    // "wait_strategy" and "scheduler" members (older coordinators) are
    // ignored: every cell runs lock-step.
    spec.seed = static_cast<std::uint64_t>(j.at("seed").as_int());
    spec.step_limit = static_cast<std::uint64_t>(j.at("step_limit").as_int());
    spec.wall_limit_ms = j.at("wall_limit_ms").as_int();
    spec.stop_when_all_correct_decided =
        j.at("stop_when_all_correct_decided").as_bool();
    spec.crashes = CrashPlan::from_json(j.at("crashes"));
    if (const Json* sched = j.find("schedule")) {
      spec.schedule = ScheduleSpec::from_json(*sched);
    }
    if (const Json* rs = j.find("record_schedule")) {
      spec.record_schedule = rs->as_bool();
    }
    if (const Json* cr = j.find("check_races")) {
      spec.check_races = cr->as_bool();
    }
    for (const Json& v : j.at("inputs").items()) {
      spec.inputs.push_back(value_from_json(v));
    }
    return spec;
  } catch (const WireError&) {
    throw;
  } catch (const std::exception& e) {
    throw WireError(std::string("malformed cell spec: ") + e.what());
  }
}

CellSpec CellSpec::from_cell(const ExperimentCell& cell) {
  if (!cell.algorithm) {
    throw ProtocolError("wire: ExperimentCell has no algorithm");
  }
  if (cell.scenario.empty()) {
    throw ProtocolError(
        "wire: only registry-named cells are serializable — build the "
        "experiment with Experiment::named(scenario, source)");
  }
  const Scenario& s = find_scenario(cell.scenario);  // throws when renamed
  CellSpec spec;
  spec.scenario = cell.scenario;
  spec.source = cell.algorithm->model;
  spec.mode = cell.mode;
  spec.target = cell.target;
  spec.hop_index = cell.hop_index;
  spec.cell_index = cell.cell_index;
  spec.mem = cell.mem;
  spec.check_legality = cell.check_legality;
  spec.seed = cell.options.seed;
  spec.step_limit = cell.options.step_limit;
  spec.wall_limit_ms = cell.options.wall_limit.count();
  spec.stop_when_all_correct_decided =
      cell.options.stop_when_all_correct_decided;
  spec.crashes = cell.options.crashes;
  if (cell.options.schedule_policy) {
    throw ProtocolError(
        "wire: an in-process SchedulePolicy object (e.g. bounded DFS) "
        "cannot cross the wire; use a declarative ScheduleSpec");
  }
  if (cell.history) {
    throw ProtocolError(
        "wire: an in-process HistoryRecorder hook cannot cross the wire");
  }
  spec.schedule = cell.schedule;
  spec.record_schedule = cell.record_schedule;
  spec.check_races = cell.check_races;
  spec.inputs = cell.inputs;
  if (cell.task) {
    if (!s.make_task) {
      throw ProtocolError("wire: scenario '" + cell.scenario +
                          "' has no canonical task, so the cell's custom "
                          "task cannot cross the wire");
    }
    // Best-effort identity check (tasks are closures and cannot be
    // compared structurally): name AND set-consensus number must match
    // the canonical task. A custom task spoofing both still validates a
    // different relation on the worker — hence the documented contract
    // that only Experiment::named grids are wire-safe.
    const auto canonical = s.make_task(spec.source);
    if (!canonical || canonical->name() != cell.task->name() ||
        canonical->set_consensus_number() !=
            cell.task->set_consensus_number()) {
      throw ProtocolError(
          "wire: cell task '" + cell.task->name() +
          "' is not the canonical task of scenario '" + cell.scenario +
          "' — custom tasks cannot cross the wire");
    }
    spec.use_scenario_task = true;
  }
  return spec;
}

ExperimentCell CellSpec::to_cell() const {
  const Scenario& s = find_scenario(scenario);
  SimulatedAlgorithm algo = s.make_algorithm(source);
  algo.validate();
  ExperimentCell cell;
  cell.scenario = scenario;
  cell.algorithm = std::make_shared<const SimulatedAlgorithm>(std::move(algo));
  cell.mode = mode;
  cell.target = target;
  cell.hop_index = hop_index;
  cell.cell_index = cell_index;
  cell.mem = mem;
  cell.check_legality = check_legality;
  cell.options.seed = seed;
  cell.options.step_limit = step_limit;
  cell.options.wall_limit = std::chrono::milliseconds(wall_limit_ms);
  cell.options.stop_when_all_correct_decided = stop_when_all_correct_decided;
  cell.options.crashes = crashes;
  cell.schedule = schedule;
  cell.record_schedule = record_schedule;
  cell.check_races = check_races;
  if (use_scenario_task) {
    if (!s.make_task) {
      throw ProtocolError("wire: scenario '" + scenario +
                          "' has no canonical task to attach");
    }
    cell.task = s.make_task(source);
  }
  cell.inputs = inputs;
  return cell;
}

RunRecord CellSpec::error_record(std::string error) const {
  RunRecord rec;
  rec.scenario = scenario;
  rec.cell_index = cell_index;
  rec.mode = mode;
  rec.source = source;
  rec.target = target;
  rec.hop_index = hop_index;
  rec.seed = seed;
  rec.mem = mem;
  rec.inputs = inputs;
  rec.error = std::move(error);
  return rec;
}

// ------------------------------------------------------------- framing

std::string hello_line() {
  Json j = Json::object();
  j.set("type", "hello").set("protocol", kWireProtocolVersion);
  return j.dump();
}

std::string cell_line(std::int64_t id, const CellSpec& spec) {
  Json j = Json::object();
  j.set("type", "cell").set("id", id).set("spec", spec.to_json());
  return j.dump();
}

std::string result_line(std::int64_t id, const RunRecord& record) {
  Json j = Json::object();
  j.set("type", "result").set("id", id).set("record", record.to_json());
  return j.dump();
}

std::string range_line(std::int64_t id, int first, int count,
                       const CellSpec& spec) {
  Json j = Json::object();
  j.set("type", "range")
      .set("id", id)
      .set("first", first)
      .set("count", count)
      .set("spec", spec.to_json());
  return j.dump();
}

std::string range_result_line(std::int64_t id, const RangeResult& result) {
  Json steps = Json::array();
  for (std::uint64_t s : result.steps) steps.push(s);
  Json records = Json::array();
  for (const RunRecord& r : result.records) records.push(r.to_json());
  Json j = Json::object();
  j.set("type", "range_result")
      .set("id", id)
      .set("steps", std::move(steps))
      .set("records", std::move(records));
  return j.dump();
}

std::string shutdown_line(bool want_metrics, bool want_trace) {
  Json j = Json::object();
  j.set("type", "shutdown");
  // Absent when false: a plain shutdown stays byte-identical to the
  // pre-telemetry protocol.
  if (want_metrics) j.set("metrics", true);
  if (want_trace) j.set("trace", true);
  return j.dump();
}

std::string error_line(const std::string& message) {
  Json j = Json::object();
  j.set("type", "error").set("message", message);
  return j.dump();
}

std::string metrics_line(const MetricsSnapshot& snapshot) {
  Json j = Json::object();
  j.set("type", "metrics").set("snapshot", snapshot.to_json());
  return j.dump();
}

std::string telemetry_line(std::int64_t seq, std::int64_t now_us,
                           const std::string& delta_json) {
  // Spliced as text, in the field order and byte layout Json::dump()
  // gives.
  std::string out;
  out.reserve(48 + delta_json.size());
  out.append("{\"type\":\"telemetry\",\"seq\":");
  out.append(std::to_string(seq));
  out.append(",\"now_us\":");
  out.append(std::to_string(now_us));
  out.append(",\"delta\":");
  out.append(delta_json);
  out.push_back('}');
  return out;
}

std::string trace_line(const Json& doc) {
  Json j = Json::object();
  j.set("type", "trace").set("trace", doc);
  return j.dump();
}

std::string wire_excerpt(const std::string& line) {
  constexpr std::size_t kMax = 120;
  std::string out;
  out.reserve(kMax + 32);
  for (std::size_t i = 0; i < line.size() && out.size() < kMax; ++i) {
    const unsigned char c = static_cast<unsigned char>(line[i]);
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  if (out.size() < line.size()) out += "...";
  out += " (" + std::to_string(line.size()) + " bytes)";
  return out;
}

WireMessage parse_wire_line(const std::string& line) {
  Json j;
  try {
    j = Json::parse(line);
  } catch (const JsonError& e) {
    // Carry a truncated excerpt of the offending line: a coordinator
    // logging this error (or a worker echoing it back) should show WHAT
    // arrived, not only why it failed to parse.
    throw WireError(std::string("unparsable wire line: ") + e.what() +
                    " in: " + wire_excerpt(line));
  }
  if (!j.is_object()) {
    throw WireError("wire line is not a JSON object: " + wire_excerpt(line));
  }
  const Json* type = j.find("type");
  if (!type || !type->is_string()) {
    throw WireError("wire line has no string 'type': " + wire_excerpt(line));
  }
  try {
    WireMessage msg;
    const std::string& t = type->as_string();
    if (t == "hello") {
      msg.type = WireMessage::Type::kHello;
      msg.protocol = static_cast<int>(j.at("protocol").as_int());
    } else if (t == "cell") {
      msg.type = WireMessage::Type::kCell;
      msg.id = j.at("id").as_int();
      msg.spec = CellSpec::from_json(j.at("spec"));
    } else if (t == "result") {
      msg.type = WireMessage::Type::kResult;
      msg.id = j.at("id").as_int();
      msg.record = RunRecord::from_json(j.at("record"));
    } else if (t == "range") {
      msg.type = WireMessage::Type::kRange;
      msg.id = j.at("id").as_int();
      // Schedule indices are ints end to end: the whole range must fit.
      const std::int64_t first = j.at("first").as_int();
      const std::int64_t count = j.at("count").as_int();
      if (first < 0 || count < 1 ||
          count > std::numeric_limits<int>::max() - first) {
        throw WireError("range line needs first >= 0, count >= 1 and "
                        "first + count <= INT_MAX");
      }
      msg.first = static_cast<int>(first);
      msg.count = static_cast<int>(count);
      msg.spec = CellSpec::from_json(j.at("spec"));
    } else if (t == "range_result") {
      msg.type = WireMessage::Type::kRangeResult;
      msg.id = j.at("id").as_int();
      RangeResult r;
      for (const Json& s : j.at("steps").items()) {
        r.steps.push_back(static_cast<std::uint64_t>(s.as_int()));
      }
      for (const Json& rec : j.at("records").items()) {
        r.records.push_back(RunRecord::from_json(rec));
      }
      msg.range = std::move(r);
    } else if (t == "shutdown") {
      msg.type = WireMessage::Type::kShutdown;
      if (const Json* m = j.find("metrics")) msg.want_metrics = m->as_bool();
      if (const Json* tr = j.find("trace")) msg.want_trace = tr->as_bool();
    } else if (t == "metrics") {
      msg.type = WireMessage::Type::kMetrics;
      msg.snapshot = MetricsSnapshot::from_json(j.at("snapshot"));
    } else if (t == "telemetry") {
      msg.type = WireMessage::Type::kTelemetry;
      msg.telemetry_seq = j.at("seq").as_int();
      msg.worker_now_us = j.at("now_us").as_int();
      msg.snapshot = MetricsSnapshot::from_json(j.at("delta"));
    } else if (t == "trace") {
      msg.type = WireMessage::Type::kTrace;
      msg.trace_doc = j.at("trace");
    } else if (t == "error") {
      msg.type = WireMessage::Type::kError;
      msg.message = j.at("message").as_string();
    } else {
      throw WireError("unknown wire message type '" + t + "'");
    }
    return msg;
  } catch (const WireError&) {
    throw;
  } catch (const std::exception& e) {
    throw WireError(std::string("malformed wire message: ") + e.what());
  }
}

// ----------------------------------------------------------- transport

bool FdLineIO::fill() {
  for (;;) {
    char chunk[4096];
    const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool FdLineIO::take_line(std::string& out) {
  const std::size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) return false;
  out.assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  return true;
}

bool FdLineIO::read_line(std::string& out) {
  while (!take_line(out)) {
    // EOF (or error) with a partial line buffered: the peer died
    // mid-write; the fragment is unusable.
    if (!fill()) return false;
  }
  return true;
}

bool FdLineIO::await_line(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (buffer_.find('\n') == std::string::npos) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{read_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1,
                         static_cast<int>(std::clamp<std::int64_t>(
                             left.count(), 0,
                             std::numeric_limits<int>::max())));
    if (r == 0) return false;
    if (r < 0 && errno == EINTR) continue;
    // Readable, or EOF or an error that read_line then reports.
    if (r < 0 || !fill()) return true;
  }
  return true;
}

namespace {

bool write_all(int fd, const std::string& framed) {
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool FdLineIO::write_line(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  return write_all(write_fd_, framed);
}

bool FdLineIO::write_lines(const std::string& a, const std::string& b) {
  std::string framed;
  framed.reserve(a.size() + b.size() + 2);
  framed.append(a);
  framed.push_back('\n');
  framed.append(b);
  framed.push_back('\n');
  return write_all(write_fd_, framed);
}

bool StringLineIO::read_line(std::string& out) {
  if (next_ >= input_.size()) return false;
  out = input_[next_++];
  return true;
}

bool StringLineIO::write_line(const std::string& line) {
  written_.push_back(line);
  return true;
}

}  // namespace mpcn
